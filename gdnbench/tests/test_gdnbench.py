"""The benchmark keeps its own promises.

Everything here runs at ``--smoke`` scale (1/50 of the requests), in
child interpreters exactly as the real command does; the whole file
takes a few seconds.
"""

import copy
import json
import re
import shutil
import subprocess
import sys
import time

import pytest

from gdnbench import ROOT, compare, layers
from gdnbench.sampler import StackSampler

CATALOGUE = json.loads((ROOT / "BENCHMARK.json").read_text())
METRICS = CATALOGUE["end_to_end"] + CATALOGUE["per_layer"]
WORKLOADS = [entry["name"] for entry in CATALOGUE["workloads"]]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "-m", "gdnbench", "--smoke"] + list(args),
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """One workload, end to end and traced: (stdout, JSON document)."""
    out = tmp_path_factory.mktemp("gdnbench") / "smoke.json"
    done = bench("--workload", "steady_download", "--seed", "11",
                 "--drives", "2", "--out", str(out))
    assert done.returncode == 0, done.stderr
    return done.stdout, json.loads(out.read_text())


def test_catalogue_is_inside_the_contract():
    assert set(CATALOGUE) == {"command", "paths", "run_seconds",
                              "workloads", "end_to_end", "per_layer"}
    assert CATALOGUE["paths"] == ["gdnbench"]
    assert 2 <= len(WORKLOADS) <= 8
    assert 1 <= len(CATALOGUE["end_to_end"]) <= 16
    assert 1 <= len(CATALOGUE["per_layer"]) <= 128
    names = WORKLOADS + [entry["name"] for entry in METRICS]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    for entry in CATALOGUE["workloads"]:
        assert set(entry) == {"name", "why"}
        assert len(entry["why"]) <= 200 and "\n" not in entry["why"]
    for entry in METRICS:
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", entry["unit"])
        assert entry["better"] in ("lower", "higher")
    for entry in CATALOGUE["end_to_end"]:
        assert set(entry) == {"name", "unit", "better", "bound"}
        assert 0 < entry["bound"] <= 0.25
    for entry in CATALOGUE["per_layer"]:
        assert set(entry) == {"name", "unit", "better"}
    setup = [e for e in CATALOGUE["end_to_end"] if e["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(e["bound"]
                                    for e in CATALOGUE["end_to_end"])


def test_printed_metric_names_are_exactly_the_catalogue(smoke):
    stdout, _document = smoke
    printed = [line.split()[1] for line in stdout.splitlines()
               if line.startswith("steady_download ")]
    assert printed == [entry["name"] for entry in METRICS]
    result = json.loads(stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    for entry in METRICS:
        assert result["metrics"][entry["name"]]["unit"] == entry["unit"]
    assert len(result["metrics"]) == len(METRICS)


def test_same_seed_same_simulation_another_seed_another(smoke):
    _stdout, document = smoke
    assert document["header"]["comparable"] is False
    first, second = document["workloads"]["steady_download"]["drives"]
    assert first["simulated"] == second["simulated"]
    assert first["layer"] == second["layer"]
    other = bench("--workload", "steady_download", "--seed", "12",
                  "--trace", "0", "--drives", "1")
    assert other.returncode == 0, other.stderr
    metrics = json.loads(other.stdout.splitlines()[-1])["metrics"]
    assert metrics["sim_latency_p50_ms"]["value"] \
        != first["simulated"]["sim_latency_p50_ms"]
    assert set(metrics) == {e["name"] for e in CATALOGUE["end_to_end"]}


@pytest.mark.parametrize("workload", [name for name in WORKLOADS
                                      if name != "steady_download"])
def test_every_workload_is_correct_and_keeps_its_premise(workload):
    done = bench("--workload", workload, "--trace", "0", "--drives", "1")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0
    assert all(entry["value"] != 0 for entry in result["metrics"].values())


def test_every_program_module_is_in_exactly_one_layer():
    modules = list(layers.program_modules())
    assert "repro.sim.kernel" in modules and len(modules) > 80
    for module in modules:
        # Raises for a module nobody placed: add it to layers._RULES.
        assert layers.layer_of_module(module) in layers.LAYERS
    assert layers.layer_of_module("repro.core.marshal") == "core.marshal"
    assert layers.layer_of_module("repro.core.runtime") == "core"
    with pytest.raises(KeyError):
        layers.layer_of_module("repro.sim.not_placed_yet")
    assert layers.layer_of_file(str(
        ROOT / "src" / "repro" / "sim" / "not_placed_yet.py")) == layers.OTHER
    assert layers.layer_of_file(json.__file__) == layers.OTHER
    assert layers.layer_of_file(__file__) == layers.OTHER


def test_sampler_self_shares_sum_to_one(smoke):
    sampler = StackSampler()
    sampler.start()
    deadline = time.process_time() + 0.05
    while time.process_time() < deadline:
        pass
    sampler.stop()
    shares = sampler.shares()
    assert sampler.samples > 0
    assert sum(shares["self"].values()) == pytest.approx(1.0)
    assert shares["self"][layers.OTHER] == pytest.approx(1.0)

    _stdout, document = smoke
    trace = document["workloads"]["steady_download"]["traced_drive"]["trace"]
    assert trace["samples"] > 0
    assert sum(trace["self"].values()) == pytest.approx(1.0)
    assert trace["inclusive"]["sim.kernel"] == pytest.approx(1.0)
    assert trace["self"]["security"] == trace["self"]["gdn.transfer"] == 0


def test_compare_flags_a_rise_past_the_bound_and_passes_identical(smoke,
                                                                  tmp_path):
    _stdout, document = smoke
    # A resolved measurement: every drive agrees with the reported one.
    steady = document["workloads"]["steady_download"]
    steady["spread"] = dict.fromkeys(steady["spread"], 0.0)
    bound = {e["name"]: e["bound"] for e in CATALOGUE["end_to_end"]}

    same = list(compare.compare(document, document,
                                CATALOGUE["end_to_end"]))
    assert len(same) == len(CATALOGUE["end_to_end"])
    assert all(row[-1] == "ok" for row in same)

    slower = copy.deepcopy(document)
    slower["workloads"]["steady_download"]["end_to_end"][
        "host_us_per_request"] *= 1.01 + bound["host_us_per_request"]
    verdicts = {row[1]: row[-1] for row in compare.compare(
        document, slower, CATALOGUE["end_to_end"])}
    assert verdicts.pop("host_us_per_request") == "worse"
    assert set(verdicts.values()) == {"ok"}

    noisy = copy.deepcopy(slower)
    noisy["workloads"]["steady_download"]["spread"][
        "host_us_per_request"] = 2 * bound["host_us_per_request"]
    verdicts = {row[1]: row[-1] for row in compare.compare(
        document, noisy, CATALOGUE["end_to_end"])}
    assert verdicts["host_us_per_request"] == "unresolved"

    paths = []
    for name, content in (("old", document), ("new", slower)):
        paths.append(str(tmp_path / (name + ".json")))
        with open(paths[-1], "w") as handle:
            json.dump(content, handle)
    assert compare.main([paths[0], paths[0]]) == 0
    assert compare.main(paths) == 1


def test_outside_a_checkout_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "gdnbench", tmp_path / "gdnbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "-m", "gdnbench", "--workload", "steady_download",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, env={"PATH": "/usr/bin:/bin"})
    assert done.returncode != 0
    assert "correct" not in done.stdout
