"""The four benchmark workloads: sizes, command lines, certificate counts and
the output checks each one runs.

Every workload drives ``subembed.cli.main`` closed-loop: one client, each
command started only after the previous one exited. Sizes are chosen so one
pass takes a few seconds on a 2-core machine, which leaves several passes per
measured run.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

from . import checks, inputs


@dataclass(frozen=True)
class Command:
    """One CLI invocation: argv after the program name, its input files and
    the files it writes. Its standard output is captured to ``stdout``."""

    label: str
    argv: tuple[str, ...]
    inputs: tuple[str, ...]
    outputs: tuple[str, ...]
    stdout: str


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # trial | sweep | embed | verify_width
    why: str
    sizes: dict = field(hash=False)
    # processes the CLI runs with; BLAS gets one thread per process
    parallelism: int = 1

    def certificates(self) -> int:
        """(map, member) certificates one pass issues."""
        s = self.sizes
        if self.kind == "trial":
            return s["trials"] * s["p"]
        if self.kind == "sweep":
            return s["trials"] * len(s["m_values"]) * s["p"]
        if self.kind == "embed":
            return s["points"] * (s["points"] - 1) // 2
        return s["p"]

    def commands(self, inp: dict, out_dir: str, parallelism: int | None = None) -> list[Command]:
        """The pass's invocations, writing into out_dir."""
        s = self.sizes
        par = str(self.parallelism if parallelism is None else parallelism)

        def out(name):
            return os.path.join(out_dir, name)

        def cmd(label, argv, ins, outs):
            return Command(label, tuple(argv), tuple(ins), tuple(outs), out(label + ".stdout"))

        if self.kind == "trial":
            log = out("trials.jsonl")
            return [cmd("trial", ["trial", "--config", inp["config"], "--output", log, "--parallelism", par],
                        [inp["config"]], [log])]
        if self.kind == "sweep":
            csv = out("sweep.csv")
            grid = ",".join(str(m) for m in s["m_values"])
            return [cmd("sweep", ["sweep", "--config", inp["config"], "--m-values", grid,
                                  "--target-rate", f"{s['target_rate']:g}", "--output", csv,
                                  "--parallelism", par],
                        [inp["config"]], [csv])]
        if self.kind == "embed":
            gamma, summary = out("gamma.csv"), out("summary.json")
            return [cmd("embed-points", ["embed-points", "--points", inp["points"], "--D", f"{s['D']!r}",
                                         "--ensemble", "gaussian", "--seed", str(inp["cli_seed"]),
                                         "--matrix-out", gamma, "--summary-out", summary],
                        [inp["points"]], [gamma, summary])]
        report, width = out("report.csv"), out("width.json")
        return [
            cmd("verify", ["verify", "--matrix", inp["matrix"], "--family", inp["family"],
                           "--D", f"{s['D']!r}", "--report-csv", report],
                [inp["matrix"], inp["family"]], [report]),
            cmd("width", ["width", "--family", inp["family"], "--draws", str(s["draws"]),
                          "--seed", str(inp["cli_seed"]), "--output", width],
                [inp["family"]], [width]),
        ]

    def check(self, inp: dict, commands: list[Command], seed: int) -> dict[str, list[str]]:
        """Semantic checks of one pass's outputs, by command label."""
        s = self.sizes

        def read(path):
            with open(path) as fh:
                return fh.read()

        by_label = {c.label: c for c in commands}
        if self.kind == "trial":
            return {"trial": checks.check_trial_log(read(by_label["trial"].outputs[0]), s)}
        if self.kind == "sweep":
            return {"sweep": checks.check_sweep_csv(read(by_label["sweep"].outputs[0]), s)}
        if self.kind == "embed":
            c = by_label["embed-points"]
            points = checks.parse_matrix_csv(read(inp["points"]))
            return {"embed-points": checks.check_embed(points, read(c.outputs[0]), read(c.outputs[1]), s)}
        with open(inp["family"]) as fh:
            members = json.load(fh)["members"]
        bases = np.array([m["basis_columns"] for m in members]).transpose(0, 2, 1)
        gamma = checks.parse_matrix_csv(read(inp["matrix"]))
        rng = np.random.default_rng(np.random.SeedSequence([seed, 99]))
        sample = rng.choice(bases.shape[0], size=min(s["check_sample"], bases.shape[0]), replace=False)
        v = by_label["verify"]
        return {
            "verify": checks.check_verify(bases, gamma, read(v.outputs[0]), read(v.stdout), s, sample),
            "width": checks.check_width(read(by_label["width"].outputs[0]), s),
        }

    def generate(self, seed: int, out_dir: str) -> dict:
        return inputs.generate(self.kind, self.sizes, seed, out_dir)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "trials-small-p2",
            "trial",
            "many tiny trials through the 2-process pool, where per-trial seeding, "
            "pickling and per-worker family rebuilds outweigh the maths",
            {"n": 64, "k": 4, "p": 16, "D": 8.0, "family_kind": "haar_random", "trials": 1000},
            parallelism=2,
        ),
        Workload(
            "sweep-sparse",
            "sweep",
            "serial sweep over 10 values of m on all C(64,2) sparse members: "
            "certification dominates and the fixed family is rebuilt every trial",
            {"n": 64, "k": 2, "p": 2016, "D": 8.0, "family_kind": "k_sparse", "trials": 4,
             "m_values": list(range(4, 41, 4)), "target_rate": 0.9},
        ),
        Workload(
            "embed-points",
            "embed",
            "one map over 44,850 one-dimensional members: subspace construction "
            "checks and the pair loop dominate, sampling is negligible",
            {"points": 300, "n": 64, "D": 8.0},
        ),
        Workload(
            "verify-width",
            "verify_width",
            "the file path: family JSON load and re-orthonormalization, one "
            "certification, and the Monte Carlo Gaussian width",
            {"n": 256, "k": 8, "p": 200, "D": 8.0, "draws": 4000, "check_sample": 32},
        ),
    )
}
