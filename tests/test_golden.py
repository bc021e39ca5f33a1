"""Golden bytes of the graph, classical and quantum CLI pipelines, in CSV and JSON.

The sha256 of each output below was captured from the implementation that
held arcs as a frozenset of tuples (the analyze JSON from the one that
built each table's CSV and JSON separately, and the rank, sweep and attack
JSON from the one that writes each JSON provenance as the CSV metadata), on
``gen --gen scalefree:2048 --seed 7`` and the same graph written as Pajek.
The two bare-mode ``rank`` outputs, on the fig1d and fig1a benchmarks, were
captured from the implementation that built rank's JSON by hand, with the
``# orbit=`` line added since. That implementation held H in its own
class; ``rank_bare_h.csv`` now iterates H as a ``GoogleMatrix`` that
patches no column, with the same bytes. The ``hierarchical:4`` and
``tree:5`` edge lists were captured from the implementation whose CLI
accepted alias spellings of the generator families. The quantum sweep on
``scalefree:128`` pins the bytes of four direct walks at N = 128; it was
captured from the implementation that ran them one after another.
The ``qrank`` series on ``scalefree:64`` and the ``compare`` table on
``scalefree:128`` were captured from the implementation whose walk operator
still carried the N^2-entry edge-space amplitudes. So was the same series
from the spectral kernel, which neither the CLI nor the library's pipelines
run any more; it is pinned through the reference pair
``evolve_spectral(build_dynamical_subspace(walk_operator(g, 0.85)), 256)``,
with the metadata the CLI wrote for it. The ``compare`` pin
lists nodes in rank order, and nodes whose quantum values tie in exact
arithmetic are ordered there by rounding, so a kernel change that moves last
digits may move that pin without a wrong rank. The quantum ``analyze`` and
``attack`` outputs on ``scalefree:128`` were captured from the implementation
that accepted an ``auto`` backend and dispatched each ranker in two places.
The ``attack`` pin picks the removed hubs and lists survivors by their
quantum values, and nodes whose values tie in exact arithmetic are ordered
there by rounding, as in the ``compare`` pin.
The three walks on the ``fig1a`` and ``fig2b`` benchmarks are the only pins
whose discriminant has eigenvalues +-1, so they hold the deflated walk: the
``fig1a`` series and the ``fig1a`` sweep's stack of three walks have one +1
mode each, and the ``fig2b`` series at alpha = 1 has one +1 and one -1 mode.
They were captured from the implementation whose pipelines still accepted
the spectral kernel as a ``backend``.
The ``rank`` and ``compare`` outputs on ``labels.txt``, an edge list whose
labels hold ``,``, ``"`` and a non-ASCII letter, are the only pins whose
labels the csv module must quote, and whose JSON escapes them. They were
captured from the implementation that built each output as one string
before writing it.
Any change to the graph model, the parsers, the link matrix, the walk kernel
or the writers that moves a byte fails here.
"""

import hashlib

import pytest

from qprank import formats
from qprank.cli import main
from qprank.graph import generate_scale_free, graph_digest, parse_edge_list, to_pajek
from qprank.szegedy import build_dynamical_subspace, evolve_spectral, walk_operator
from test_formats import written

GEN = ["--gen", "scalefree:2048", "--seed", "7"]

GOLDEN = {
    "gen.txt": ["gen", *GEN],
    "gen.json": ["gen", *GEN, "--format", "json"],
    "rank_edges.csv": ["rank", "--input", "web.txt"],
    "rank_pajek.csv": ["rank", "--input", "web.net"],
    "sweep.csv": ["sweep", "--input", "web.txt", "--ranker", "classical",
                  "--grid", "0.65:0.95:4"],
    "attack.csv": ["attack", "--input", "web.txt", "--ranker", "classical", "--remove", "3"],
    "analyze.csv": ["analyze", "--input", "web.txt", "--ranker", "classical"],
}
GOLDEN.update({name.replace(".csv", ".json"): [*argv, "--format", "json"]
               for name, argv in list(GOLDEN.items()) if name.endswith(".csv")})
GOLDEN.update({
    "rank_bare_e.csv": ["rank", "--benchmark", "fig1d", "--alpha", "1.0", "--bare"],
    "rank_bare_h.csv": ["rank", "--benchmark", "fig1a", "--bare", "h"],
    "gen_hierarchical.txt": ["gen", "--gen", "hierarchical:4"],
    "gen_tree.txt": ["gen", "--gen", "tree:5"],
    "sweep_quantum.csv": ["sweep", "--gen", "scalefree:128", "--seed", "7",
                          "--ranker", "quantum", "--grid", "0.65:0.95:4"],
})
GOLDEN["sweep_quantum.json"] = [*GOLDEN["sweep_quantum.csv"], "--format", "json"]
QRANK = ["qrank", "--gen", "scalefree:64", "--seed", "2", "--steps", "256"]
COMPARE = ["compare", "--gen", "scalefree:128", "--seed", "7"]
ANALYZE = ["analyze", "--gen", "scalefree:128", "--seed", "7"]
ATTACK = ["attack", "--gen", "scalefree:128", "--seed", "7", "--ranker", "quantum",
          "--remove", "3"]
GOLDEN.update({
    "qrank.csv": QRANK,
    "qrank.json": [*QRANK, "--format", "json"],
    "compare.csv": COMPARE,
    "compare.json": [*COMPARE, "--format", "json"],
    "analyze_quantum.csv": ANALYZE,
    "analyze_quantum.json": [*ANALYZE, "--format", "json"],
    "attack_quantum.csv": ATTACK,
    "attack_quantum.json": [*ATTACK, "--format", "json"],
    "qrank_fig1a.csv": ["qrank", "--benchmark", "fig1a", "--steps", "64"],
    "qrank_fig2b.csv": ["qrank", "--benchmark", "fig2b", "--alpha", "1", "--steps", "128"],
    "sweep_quantum_fig1a.csv": ["sweep", "--benchmark", "fig1a", "--ranker", "quantum",
                                "--grid", "0.5:0.9:3"],
    "rank_labels.csv": ["rank", "--input", "labels.txt"],
    "rank_labels.json": ["rank", "--input", "labels.txt", "--format", "json"],
    "compare_labels.csv": ["compare", "--input", "labels.txt"],
    "compare_labels.json": ["compare", "--input", "labels.txt", "--format", "json"],
})
LABELLED = 'a,b q"r\nq"r \u00fc\n\u00fc a,b\n\u00fc q"r\n'

SHA256 = {
    "gen.txt": "ef6e21feb915efbab3e7781b81697ad2ecb037f4d9e8a0e40d3e3de6fe9e74cb",
    "gen.json": "14e7ac5ccd6a3b6fab736ad0148ab33a5f73e6e222e90fe2f8b6df2bceeb902d",
    "web.net": "f333f7af2787bff3a5eece05e888f3b89047fc78766a6fc8723f62bb344f6b4e",
    "rank_edges.csv": "30c0ed8a9a84f914d16796116a9b291deed02e42745fc2c7ccd66263a780e7e0",
    "rank_pajek.csv": "2255327a5e074cac804d422a213d945edfd226414863559cefa77e757092acfd",
    "sweep.csv": "84f2fa1eebfdc0d04e15094ac7f3e28697e8a2779a12d9eeb2b96bf8a6b6041b",
    "attack.csv": "d0959c5b3ad3fde5665e432993b4c73cbe5731cefd23fab1dd7b17d24a487bd7",
    "analyze.csv": "b20b442c6943e61e0b3077db7c7a12c35870403d20b5a00360c6e2015239fac7",
    "rank_edges.json": "7dc0755ea7483cef7bf19fef957dd677316d9c0518851dc88abe8cae889cdc3f",
    "rank_pajek.json": "258b56f51f5fa6413f4f4bb988f573112797c410c5f7eb061476287f8a143195",
    "sweep.json": "7195402fda2d60f490b9d4031b3fe5a40acac2f2f0d56ad6801eaa65e2e8c3f6",
    "attack.json": "9e3b66403aaa604552c28da23d3b818660ad353e3cf79d7ad18cfdc8c005c835",
    "analyze.json": "8f2ddc555f38399c8b1254842c7687730db92d5871d920621d003720dec09662",
    "rank_bare_e.csv": "c4384eaf876711aeaacd6906f7742d44b77d62cb5a220b1e6560ac83be582222",
    "rank_bare_h.csv": "f66178dcb8174c67538df66e819e585616146f924c9eeb582dd87be6ca22276f",
    "gen_hierarchical.txt": "fde85e79570bb2272241e4fb90f4180be1a296fbb835d922fba5da2d36bc83fc",
    "gen_tree.txt": "7bf8311cc0be6d4ed3d3a6811407542fc99bcbd7ff544d25c60eff2c3842272d",
    "sweep_quantum.csv": "aaa6938c75872377d730be1962e8d5b05160f401ef6b293f804df782ea693c81",
    "sweep_quantum.json": "36075aaaf98b3febf8e1aaaacede9e6919bc303e00282212baa87060b8d940ae",
    "qrank.csv": "8f36cb381056b40964bd115b420438f77162020445209a41a735406bbe44a115",
    "qrank.json": "661dc7512079c559366e03f12bcfb8e73be8111c872ad38a861d07a40f5506ce",
    "qrank_spectral.csv": "c2e7c3a5abffc5f5cf286fc53086cdcf0c4167f440912690c58f43b340de2aa1",
    "compare.csv": "5446cd4242d9ba4613f95e2b3f6bb94f2b5121252b32beae4917989ba73b890e",
    "compare.json": "57c9cc7ad0f65b096b639a206c983da444fcce352750c20301b4ee23597fb992",
    "analyze_quantum.csv": "fd237cb81741daca0aa56c0e3f0903e6aea56b1f0afaeb2f08e83d3f158d6895",
    "analyze_quantum.json": "34deecaa310a4e39dea6f7404c233c77a5f978d61c7a079e6b7a5265675926de",
    "attack_quantum.csv": "4e56af18cef7450b5f36ceb24282bb46af51dc6dbc17e9a2f3ef73f8c9e3ec68",
    "attack_quantum.json": "ce7bdc278c3babd165317c2cf61f97c0802e3d3edb1c2ba61361b64c50ec2d71",
    "qrank_fig1a.csv": "5fccee4465d1c2c0c5364e982a046f4057007d3b7a5e69562920e001ce46dbfc",
    "qrank_fig2b.csv": "877cc1559dbbb01d4702bc57031a3d68ea0dc38184de23a91d8390ce2149659d",
    "sweep_quantum_fig1a.csv": "47781e836a2a5400c1ceec670e4cf1e8ec050d10e8a9a3d36d0aec5a982f6ab0",
    "rank_labels.csv": "6392acd80a140e6fef42479ead33223439086fb3e0b9e70364ba0711b3a88d5f",
    "rank_labels.json": "52af0601910ed25e58f6ce7c5990ac41a2b32bffb34f9c47fbfcaf0aa6625486",
    "compare_labels.csv": "7e797199f143e0b2c040d7b19c383b1a68cb45b3dd16623873ec815ec5f8c249",
    "compare_labels.json": "4e943c163991b630552c8cc85d33e555d51fe1fcb27ef9b83218fd1503f9fb80",
}
DIGEST = "ef6e21feb915efba"


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """Inputs written once; file names are relative so ``source=`` metadata is fixed."""
    path = tmp_path_factory.mktemp("golden")
    assert main(["gen", *GEN, "--output", str(path / "gen.txt")]) == 0
    text = (path / "gen.txt").read_text(encoding="utf-8")
    (path / "web.txt").write_text(text, encoding="utf-8")
    (path / "web.net").write_text(to_pajek(parse_edge_list(text)), encoding="utf-8")
    (path / "labels.txt").write_text(LABELLED, encoding="utf-8")
    return path


def _sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_cli_output_bytes(name, workdir, monkeypatch):
    monkeypatch.chdir(workdir)
    assert main([*GOLDEN[name], "--output", f"out_{name}"]) == 0
    assert _sha(workdir / f"out_{name}") == SHA256[name]


def test_spectral_series_bytes():
    g = generate_scale_free(64, 2)
    meta = {"source": "scalefree:64", "seed": 2, "graph": graph_digest(g),
            "alpha": 0.85, "steps": 256, "backend": "spectral"}
    series = evolve_spectral(build_dynamical_subspace(walk_operator(g, 0.85)), 256)
    text = written(formats.series_csv(series, meta))
    assert hashlib.sha256(text.encode()).hexdigest() == SHA256["qrank_spectral.csv"]


def test_pajek_writer_bytes(workdir):
    assert _sha(workdir / "web.net") == SHA256["web.net"]


def test_graph_digest(workdir):
    g = parse_edge_list((workdir / "web.txt").read_text(encoding="utf-8"))
    assert graph_digest(g) == DIGEST
