"""``repro analyze``, pinned artifact by artifact.

Two analyzed runs are hashed: a 4-GPU MG-Join under a GPU crash with
the conformance probe on, and a skewed 4-GPU direct-routed shuffle with
the probe on.  Each pin covers the printed report (without its ``wrote``
lines, which name the output directory) and every file ``--out-dir``
writes; ``bottlenecks.json`` is hashed without its ``run`` block, which
names the Python version.  How an analyzed run is wired may change; what
it reports may not.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.cli import main

RUNS = {
    "join-crash-conformance": [
        "--mode", "join", "--gpus", "4", "--tuples-per-gpu", "1M",
        "--real-tuples", "4K", "--conformance", "--chaos", "gpu-crash",
    ],
    "shuffle-hot-direct-conformance": [
        "--mode", "shuffle", "--hot-gpu", "0", "--policy", "direct",
        "--gpus", "4", "--bytes-per-flow", "4M", "--conformance",
    ],
}

#: sha256 of each artifact of each run.
GOLDEN = {
    "join-crash-conformance": {
        "stdout": (
            "1d12391d123d4bf4b46ee0e8b9bbbcf0"
            "cffe0297a7a8926abbb28ed6608ad304"
        ),
        "heatmap.csv": (
            "d10d61fc647129de301b8276c68a17f3"
            "88ded1d2c8c5932a1d822e66d9bb76c4"
        ),
        "heatmap.json": (
            "18d4a07acc35db66b9b865af0845142a"
            "e087c00f88a80d3d60d24df60b6a3644"
        ),
        "regret.csv": (
            "bf3a68ae11eaf2660d12bbd8e3591746"
            "b0e0c5ea90f4506e4e907eeabfdd7d54"
        ),
        "bottlenecks.json": (
            "5bc62c5d94f3fa442be9085516116279"
            "4dd61cbfa4cae6a43c03698daa2dc165"
        ),
    },
    "shuffle-hot-direct-conformance": {
        "stdout": (
            "1b70aeb7b935767951a13eec0fa16c84"
            "ba37955c42d4f0d546ef99da266e32ea"
        ),
        "heatmap.csv": (
            "400cfaf682cd6868bb8ea1c50f35533e"
            "e7e709f16709b70c249d5b54569b092d"
        ),
        "heatmap.json": (
            "d5459a6a15ab1e3829ecf17ce4d2a28d"
            "5b36d8c0bf921c47b1b08a1721ba0374"
        ),
        "regret.csv": (
            "1fe03ccd8ff29876007d1b9eecef0a53"
            "0ab4f0bc2f13e244a3bab44477473a10"
        ),
        "bottlenecks.json": (
            "bae69edfd8b69bbcca4d14b38282f991"
            "95b89e863565ada70d5bb56b5e7c14c4"
        ),
    },
}


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def analyze_digests(argv, out_dir, capsys) -> dict[str, str]:
    capsys.readouterr()
    assert main(["analyze", *argv, "--out-dir", str(out_dir)]) == 0
    stdout = "".join(
        line
        for line in capsys.readouterr().out.splitlines(keepends=True)
        if not line.startswith("wrote ")
    )
    digests = {"stdout": sha256(stdout)}
    for name in ("heatmap.csv", "heatmap.json", "regret.csv"):
        digests[name] = sha256((out_dir / name).read_text())
    bottlenecks = json.loads((out_dir / "bottlenecks.json").read_text())
    del bottlenecks["run"]
    digests["bottlenecks.json"] = sha256(json.dumps(bottlenecks, sort_keys=True))
    return digests


@pytest.mark.parametrize("name", list(RUNS))
def test_analyze_matches_golden(name, tmp_path, capsys):
    assert analyze_digests(RUNS[name], tmp_path, capsys) == GOLDEN[name]
