"""The benchmark's workloads: what each one runs and how its inputs follow
from the seed.

One repetition of a workload is one `edgefed` CLI invocation: its argv and
config file. The blockchain runs that invocation makes are also timed one by
one through `simkernel.run_once`, using the same config.
This module imports no edgefed code, so the set-up probe and the runner can
use it without loading the simulator.
"""

import json
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SWEEP_CONFIG = ROOT / "configs" / "sweep.json"
WORK = ROOT / ".perfbench-work"

NAMES = ("paper_sweep", "scale_n300", "serial_n100")
SIZES = ("full", "tiny")


@dataclass(frozen=True)
class Workload:
    name: str
    seed: int
    size: str
    command: str             # edgefed subcommand: "run" or "sweep"
    config_path: Path
    extra_args: tuple        # flags after --config, before --out
    runs: int
    cells: tuple             # (variant, n_systems) per output cell

    def argv(self, out_dir) -> list:
        return [self.command, "--config", str(self.config_path), *self.extra_args,
                "--out", str(out_dir)]

    @property
    def chain_cells(self) -> tuple:
        """The blockchain cells; SOA runs build no chain and are not timed."""
        return tuple(c for c in self.cells if c[0] != "soa")


def _write_config(path: Path, doc: dict) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return path


def _paper_sweep(seed: int, size: str, work: Path) -> Workload:
    doc = json.loads(SWEEP_CONFIG.read_text(encoding="utf-8"))
    if size == "full":
        # The file users run, untouched; the seed goes in by the --seed flag.
        path = SWEEP_CONFIG
    else:
        doc["runs"] = 2
        doc["sweep"]["n_systems"] = [2, 10]
        path = _write_config(work / "paper_sweep.json", doc)
    cells = tuple((v, n) for v in doc["sweep"]["variants"] for n in doc["sweep"]["n_systems"])
    return Workload("paper_sweep", seed, size, "sweep", path, ("--seed", str(seed)),
                    doc["runs"], cells)


def _single_cell(name, seed, size, work, *, n, variant, runs, **extra) -> Workload:
    doc = {
        "scenario_id": name,
        "topology": {"n_systems": n},
        "consensus": {"algorithm": variant},
        "runs": runs,
        "seed": seed,
        **extra,
    }
    path = _write_config(work / f"{name}.json", doc)
    return Workload(name, seed, size, "run", path, (), runs, ((variant, n),))


def build(name: str, seed: int, size: str = "full", work: Path = WORK) -> Workload:
    """The workload `name` at `seed`; writes its generated config under `work`."""
    if size not in SIZES:
        raise ValueError(f"unknown size {size!r}")
    tiny = size == "tiny"
    if name == "paper_sweep":
        return _paper_sweep(seed, size, work)
    if name == "scale_n300":
        return _single_cell(name, seed, size, work, n=10 if tiny else 300,
                            variant="clique", runs=1,
                            concurrency_mode="all_consumers_simultaneous")
    if name == "serial_n100":
        return _single_cell(name, seed, size, work, n=10 if tiny else 100,
                            variant="qbft", runs=1,
                            concurrency_mode="single", scenario_timeout_s=2500)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
