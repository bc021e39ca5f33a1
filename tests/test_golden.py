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
accepted alias spellings of the generator families.
The ``qrank`` series on ``scalefree:64`` was captured from the implementation
that reads every walk's distribution out through ``GoogleMatrix``, on either
kernel, so that no BLAS product touches a walk's bytes; against the dense
kernel's readout by a matrix product before it, its values moved by at most
6.4e-16. The same series from the spectral kernel, which neither the CLI nor
the library's pipelines run any more, was captured from the implementation
whose walk operator still carried the N^2-entry edge-space amplitudes; it is
pinned through the reference pair
``evolve_spectral(build_dynamical_subspace(walk_operator(g, 0.85)), 256)``,
with the metadata the CLI wrote for it.
The four quantum pipelines on ``scalefree:128`` (the sweep of four walks,
``compare``, ``analyze`` and ``attack``) were captured from the sparse kernel,
which runs every walk of 128 nodes or more; against the dense kernel before
it their numbers moved by at most 7.1e-13 (``analyze``'s IPR of 20.6) and no
row moved. The ``compare`` pin lists nodes in rank order, and the ``attack``
pin picks the removed hubs and lists survivors by their quantum values; nodes
whose values tie in exact arithmetic are ordered there by rounding, so a
kernel change that moves last digits may move those pins without a wrong
rank. The ``attack`` pins also hold the walk after the removal, on 125 nodes
and so on the dense kernel; they were recaptured with the readout through
``GoogleMatrix``, which moved their values by at most 1.0e-17 and no row.
``compare`` on ``scalefree:10000`` was captured from the sparse kernel, at
one and at two BLAS threads alike.
The three pins on the ``fig1a`` and ``fig2b`` benchmarks are the only ones
whose discriminant has eigenvalues +-1, so they hold the deflated walk: the
``fig1a`` series and the three walks of the ``fig1a`` sweep have one +1
mode each, and the ``fig2b`` series at alpha = 1 has one +1 and one -1 mode.
The sweep was captured from the implementation whose pipelines still
accepted the spectral kernel as a ``backend``, and the two series with the
readout through ``GoogleMatrix``, which moved them by at most 2.2e-16
(``fig1a``) and 5.6e-17 (``fig2b``).
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
    "compare_10000.csv": ["compare", "--gen", "scalefree:10000", "--seed", "0"],
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
    "sweep_quantum.csv": "98897cd50b8b543b41e6e99335e794d0d658c856cbbada21538b8dcc29ac928a",
    "sweep_quantum.json": "82eb161740a72db093fbf1bafcc54371c4e5721ff3c94b42716ac806c433d736",
    "qrank.csv": "64873d278b9b1c08193ff1c8fe25248157333e427272b80d87babd9897999939",
    "qrank.json": "4957a512bb0b7b87c819b62f3277446e2fd068949322545b35bb51aea20db643",
    "qrank_spectral.csv": "c2e7c3a5abffc5f5cf286fc53086cdcf0c4167f440912690c58f43b340de2aa1",
    "compare.csv": "051953e63f4ebcdbccd0b10082f211e94041fa26996220da6f6fe5aab702672f",
    "compare.json": "e6b5fae6ba61c2a95abe8f9d6d3494de2303246dd89e4e4b218afbbaeb29e7a4",
    "analyze_quantum.csv": "eaa4c7c6f9a4a9e52436e7ee511233eca2a9d29b666da646277c66cf4d2b26b9",
    "analyze_quantum.json": "50244a94a476cc32f9d741e0a5193c39738f08dd1b44c7b189402e1a1d11ae1b",
    "attack_quantum.csv": "7fa91a8ad6eabbc8163355d1f6045460c6e0267c591b2668ecae58610d3ec5c8",
    "attack_quantum.json": "addbf46c7edb6ffda45aaa1a7aac50c9aef7ab56d8e320e63dea8cd901a0ac7e",
    "qrank_fig1a.csv": "ba71070ad3ef314c8ed7536afffec7511034a8d18cf6817ddcddd2522c504f4f",
    "qrank_fig2b.csv": "500563248ebfc1913f8cffa4f6b2ae9b0b0cd07a3ea32d9565deba06d51d5a96",
    "sweep_quantum_fig1a.csv": "47781e836a2a5400c1ceec670e4cf1e8ec050d10e8a9a3d36d0aec5a982f6ab0",
    "rank_labels.csv": "6392acd80a140e6fef42479ead33223439086fb3e0b9e70364ba0711b3a88d5f",
    "rank_labels.json": "52af0601910ed25e58f6ce7c5990ac41a2b32bffb34f9c47fbfcaf0aa6625486",
    "compare_labels.csv": "7e797199f143e0b2c040d7b19c383b1a68cb45b3dd16623873ec815ec5f8c249",
    "compare_labels.json": "4e943c163991b630552c8cc85d33e555d51fe1fcb27ef9b83218fd1503f9fb80",
    "compare_10000.csv": "0f80ce14ffd488ce37a4e88dd3d4f374eff7701495e1a1d00a5e34f7899263fe",
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
