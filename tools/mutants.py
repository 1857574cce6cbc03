#!/usr/bin/env python3
"""Committed mutants: each planted change to src/ must fail the tests named for it.

A mutant is a (file, exact old text, new text, pytest node ids) entry of
``MUTANTS``: a change that a sound test suite must notice, such as a slack
term of the certification screen narrowed or dropped, or a gate of the
family-file scan that lets a malformed file through. For each mutant the
tool copies src/, tests/ and pyproject.toml to a temporary directory, checks
that the old text occurs exactly once in the file, runs the named tests on
the unmutated copy, where they must pass, then plants the new text and runs
them again. The mutant is killed only if pytest then exits 1, a test
failure; a collection or usage error does not count.

    python3 tools/mutants.py

Runs every mutant. Exits 0 when each is killed, and 1 after listing every
survivor and every entry whose text or tests do not hold on the unmutated
tree.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CACHES = "__pycache__"  # not copied: each copy compiles its own sources

DISTORTION = "src/subembed/distortion.py"
CLI = "src/subembed/cli.py"
ENSEMBLES = "src/subembed/ensembles.py"
GEOMETRY = "src/subembed/geometry.py"
ERRORS = "src/subembed/errors.py"
HARNESS = "src/subembed/harness.py"
SCREEN_TESTS = "tests/test_distortion.py::"
FLAG_TESTS = [
    SCREEN_TESTS + "test_flagged_tile_keeps_every_pair_of_its_maps_and_no_more",
    SCREEN_TESTS + "test_flagged_stack_across_tiles_adds_nothing_and_keeps_every_pair",
]
FAMILY_FILE_TESTS = "tests/test_cli.py::test_malformed_family_file_exits_2"
EMBED_TESTS = "tests/test_harness.py::test_metric_embed_"
NAMED_TESTS = "tests/test_cli.py::test_malformed_input_file_errors_start_with_its_path"
UNUSABLE_TESTS = "tests/test_cli.py::test_unusable_paths_exit_2"

# name: (file, old text, new text, node ids of tests at least one of which must fail)
MUTANTS = {
    # the Gram screen's relative slack 2^10 times narrower
    "screen-tau": (
        DISTORTION,
        "_SCREEN_TAU = 2.0**-26",
        "_SCREEN_TAU = 2.0**-36",
        [SCREEN_TESTS + "test_screen_keeps_both_pairs_of_a_near_tie"],
    ),
    # a k-column member given the one-column bound of the wide product's error
    "delta-without-k": (
        DISTORTION,
        "_tile_bounds(maps, tile, tile.shape[2] * delta, m_values)",
        "_tile_bounds(maps, tile, delta, m_values)",
        [SCREEN_TESTS + "test_screen_slack_is_k_times_the_one_column_bound_in_each_stack"],
    ),
    # no slack for the wide product's error at all
    "delta-zero": (
        DISTORTION,
        "np.sqrt(m_values)[:, None])[:, :, None]\n",
        "np.sqrt(m_values)[:, None])[:, :, None]\n        delta[...] = 0.0\n",
        [SCREEN_TESTS + "test_wide_screen_slack_covers_the_wide_product_error"],
    ),
    # the kept pairs' exact products formed from every row of the maps, not their first m
    "products-over-every-row": (
        DISTORTION,
        "_kept_products(maps[:, :m], tile, keep)",
        "_kept_products(maps, tile, keep)",
        [SCREEN_TESTS + "test_grid_screen_across_column_tiles"],
    ),
    # a tile beyond the slack's range, or with a non-finite Gram, screened as any other
    "no-tile-flag": (
        DISTORTION,
        "flagged = ~finite | ((m_values + np.arange(1, len(m_values) + 1)) * k > _SCREEN_MAX_MK)",
        "flagged = np.zeros(len(m_values), dtype=bool)",
        FLAG_TESTS,
    ),
    # a flagged tile's intervals opened, but its floor and ceiling folded into the running ones
    "flagged-tile-folds-its-floors": (
        DISTORTION,
        "    below[flagged], floor[flagged] = -np.inf, -np.inf\n"
        "    above[flagged], ceiling[flagged] = np.inf, np.inf\n",
        "    below[flagged] = -np.inf\n    above[flagged] = np.inf\n",
        FLAG_TESTS,
    ),
    # no absolute floor under the Gram screen's slack
    "screen-floor-zero": (
        DISTORTION,
        "_SCREEN_FLOOR = 2.0**-1000",
        "_SCREEN_FLOOR = 0.0",
        [SCREEN_TESTS + "test_screen_subnormal_map_keeps_the_smaller_pair"],
    ),
    # the point screen's slack 1024 times narrower (16 -> 1 is equivalent, see CHANGES.md)
    "pair-tau-over-64": (
        DISTORTION,
        "return 16.0 * (n + m + 16) * _EPS",
        "return (n + m + 16) * _EPS / 64.0",
        [
            EMBED_TESTS + "matches_pair_loop_reference",
            EMBED_TESTS + "certifies_like_family_distortion",
            EMBED_TESTS + "small_chunks_certify_like_one_batch[near-duplicates]",
        ],
    ),
    # the quote gate: quotes counted outside strings only (always none)
    "scan-quotes-outside-strings": (
        GEOMETRY,
        "len(pieces) - 1, b\"t\" in kept",
        "b\"\".join(pieces[::2]).count(b'\"'), b\"t\" in kept",
        [FAMILY_FILE_TESTS + "[numeric-string-base]", FAMILY_FILE_TESTS + "[numeric-string-basis]"],
    ),
    # the quote gate: one quote counted a string
    "scan-one-quote-a-string": (
        GEOMETRY,
        "len(pieces) - 1, b\"t\" in kept",
        "len(pieces[::2]) - 1, b\"t\" in kept",
        [FAMILY_FILE_TESTS + "[numeric-string-base]", FAMILY_FILE_TESTS + "[numeric-string-basis]"],
    ),
    # the letter gate: no 't' or 'f' ever seen, so no entry's type is walked
    "scan-no-letters": (
        GEOMETRY,
        "b\"t\" in kept or b\"f\" in kept",
        "False",
        [FAMILY_FILE_TESTS + "[bool-base]", FAMILY_FILE_TESTS + "[bool-basis]"],
    ),
    # the letters of true and false left among the brackets, so such a file never scans as shallow
    "scan-letters-in-brackets": (
        GEOMETRY,
        "brackets = b\"\".join(pieces[::2]).translate(None, b\"tf\")",
        "brackets = b\"\".join(pieces[::2])",
        ["tests/test_geometry.py::test_family_bytes_load_the_stacks_json_loads[true-false-outside-strings]"],
    ),
    # a family file's errors no longer name the file
    "family-errors-unnamed": (
        GEOMETRY,
        "    with naming(path):\n        groups = _stacks(",
        "    if True:\n        groups = _stacks(",
        [NAMED_TESTS + "[family-n-string]", NAMED_TESTS + "[family-truncated]"],
    ),
    # the iid-bounded alpha below the supremum that (e1 + e2)/sqrt(2) attains
    "iid-alpha-below-sup": (
        ENSEMBLES,
        "math.sqrt(2.0 / 3.0)",
        "math.sqrt(0.5)",
        ["tests/test_ensembles.py::test_concentration_bounded_by_alpha"],
    ),
    # a standard-stream write left unflushed: argparse's failed usage message waits for the flush at exit
    "stderr-unflushed": (
        CLI,
        "            stream.write(text)\n        stream.flush()\n",
        "            stream.write(text)\n",
        ["tests/test_cli.py::test_an_unwritable_standard_error_exits_2[usage-buffered]"],
    ),
    # argparse's failed write of the help left for the interpreter's flush at exit, which exits 120
    "help-stdout-unflushed": (
        CLI,
        '            _write_standard("stdout", "")\n',
        "",
        ["tests/test_cli.py::test_help_to_a_full_standard_output_exits_2"],
    ),
    # an input file that cannot be read raises its OSError past the CLI's error line
    "read-error-escapes": (
        ERRORS,
        "        raise InputError(getattr(exc, \"strerror\", None) or str(exc)) from exc\n",
        "        raise\n",
        [UNUSABLE_TESTS + "[config-missing]", UNUSABLE_TESTS + "[family-missing]"],
    ),
    # each range of trials embeds a family of its own, seeded by where the range starts
    "family-per-range": (
        HARNESS,
        "    family = build_family(config)\n",
        "    family = build_family(ExperimentConfig(**{**vars(config), \"seed\": config.seed + trials.start}))\n",
        [
            "tests/test_harness.py::test_run_trials_parallel_matches_serial",
            "tests/test_cli.py::test_trial_parallel_flag_matches_serial_bytes",
        ],
    ),
    # Box-Muller's second entry of each pair a copy of the first: half as many distinct columns
    "sampler-pairs-equal": (
        ENSEMBLES,
        "    np.multiply(radius, np.where(odd, cos, sin), out=rows[:, 1::2])\n",
        "    np.multiply(radius, np.where(odd, cos, sin), out=rows[:, 1::2])\n    rows[:, 1::2] = rows[:, 0::2]\n",
        ["tests/test_harness.py::test_sweep_on_coordinate_lines_matches_the_exact_law"],
    ),
}


def pytest_exit(tree: str, node_ids: list[str]) -> int:
    """pytest's exit status on the named tests of the copy at tree, stopping
    at the first failure; 0 all passed, 1 a test failed."""
    # no bytecode is written: a mutant of the same length, planted within the
    # second, would otherwise run as the unmutated file's cached bytecode
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"), PYTHONDONTWRITEBYTECODE="1")
    argv = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *node_ids]
    return subprocess.run(argv, cwd=tree, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode


def check(name: str, work: str) -> str | None:
    """None when the mutant is killed; otherwise why it is listed."""
    path, old, new, node_ids = MUTANTS[name]
    tree = os.path.join(work, name)
    for part in ("src", "tests"):
        shutil.copytree(os.path.join(ROOT, part), os.path.join(tree, part), ignore=shutil.ignore_patterns(CACHES))
    shutil.copy(os.path.join(ROOT, "pyproject.toml"), tree)
    with open(os.path.join(tree, path), encoding="utf-8") as fh:
        text = fh.read()
    if text.count(old) != 1:
        return f"its old text occurs {text.count(old)} times in {path}, not once"
    code = pytest_exit(tree, node_ids)
    if code:
        return f"its tests exit {code} on the unmutated tree"
    with open(os.path.join(tree, path), "w", encoding="utf-8") as fh:
        fh.write(text.replace(old, new))
    code = pytest_exit(tree, node_ids)
    return None if code == 1 else f"survived: its tests exit {code} on the mutant"


def main() -> int:
    listed = []
    with tempfile.TemporaryDirectory(prefix="mutants-") as work:
        for name in MUTANTS:
            start = time.perf_counter()
            reason = check(name, work)
            print(f"{name}: {reason or 'killed'} ({time.perf_counter() - start:.1f} s)", flush=True)
            if reason:
                listed.append(f"{name}: {reason}")
    for line in listed:
        print(f"not killed: {line}")
    print(f"{len(MUTANTS) - len(listed)} of {len(MUTANTS)} mutants killed")
    return 1 if listed else 0


if __name__ == "__main__":
    sys.exit(main())
