"""End-to-end tests for the command-line interface."""

import pytest

from repro.cli import main
from repro.qb import load_cubespace
from repro.rdf import CCREL, parse_ntriples, parse_turtle


@pytest.fixture
def corpus_file(tmp_path):
    path = tmp_path / "corpus.ttl"
    code = main(["generate", "--kind", "realworld", "--scale", "0.001",
                 "--seed", "1", "--output", str(path)])
    assert code == 0
    return path


class TestGenerate:
    def test_realworld_roundtrips(self, corpus_file):
        cube = load_cubespace(parse_turtle(corpus_file.read_text()))
        assert len(cube.datasets) == 7
        assert cube.observation_count() > 0

    def test_synthetic_to_ntriples(self, tmp_path):
        path = tmp_path / "synthetic.nt"
        code = main(["generate", "--kind", "synthetic", "--n", "50",
                     "--dimensions", "2", "--output", str(path)])
        assert code == 0
        graph = parse_ntriples(path.read_text())
        assert len(graph) > 50

    def test_synthetic_roundtrips_through_compute(self, tmp_path):
        from repro.core.cubemask import compute_cubemask
        from repro.data.synthetic import build_synthetic_space
        from repro.store import load_relationships

        corpus, links = tmp_path / "synthetic.ttl", tmp_path / "links.json"
        assert main(["generate", "--kind", "synthetic", "--n", "200", "--dimensions", "4",
                     "--seed", "3", "--output", str(corpus)]) == 0
        assert main(["compute", "--input", str(corpus), "--method", "cube_masking",
                     "--json-output", str(links)]) == 0
        loaded = load_relationships(links)
        expected = compute_cubemask(build_synthetic_space(200, dimension_count=4, seed=3))
        assert expected.full and expected.partial and expected.complementary
        assert loaded.full == expected.full
        assert loaded.partial == expected.partial
        assert loaded.complementary == expected.complementary

    def test_stdout_output(self, capsys):
        code = main(["generate", "--kind", "realworld", "--scale", "0.0005"])
        assert code == 0
        out = capsys.readouterr().out
        assert "@prefix" in out


class TestCompute:
    def test_compute_writes_links(self, corpus_file, tmp_path):
        out = tmp_path / "links.ttl"
        code = main(["compute", "--input", str(corpus_file),
                     "--method", "cube_masking", "--targets", "full",
                     "--output", str(out)])
        assert code == 0
        links = parse_turtle(out.read_text())
        assert all(p == CCREL.fullyContains for _, p, _ in links)

    def test_compute_to_stdout(self, corpus_file, capsys):
        code = main(["compute", "--input", str(corpus_file),
                     "--method", "cube_masking", "--targets", "complementary"])
        assert code == 0

    def test_methods_agree_via_cli(self, corpus_file, tmp_path):
        outputs = []
        for method in ("baseline", "cube_masking", "streaming"):
            out = tmp_path / f"{method}.nt"
            main(["compute", "--input", str(corpus_file), "--method", method,
                  "--targets", "full", "--output", str(out)])
            outputs.append(out.read_text())
        assert outputs[0] == outputs[1] == outputs[2]

    def test_json_output(self, corpus_file, tmp_path):
        from repro.store import load_relationships

        out = tmp_path / "links.json"
        main(["compute", "--input", str(corpus_file), "--method", "cube_masking",
              "--targets", "full", "--json-output", str(out)])
        loaded = load_relationships(out)
        assert len(loaded.full) > 0

    def test_unknown_method_rejected(self, corpus_file):
        with pytest.raises(SystemExit):
            main(["compute", "--input", str(corpus_file), "--method", "magic"])


class TestErrorHandling:
    def test_malformed_input_exits_with_diagnostic(self, tmp_path, capsys):
        bad = tmp_path / "garbage.ttl"
        bad.write_text("this is not turtle {{{")
        code = main(["compute", "--input", str(bad), "--method", "cube_masking"])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("repro: error:")
        assert len(err.strip().splitlines()) == 1  # one line, not a traceback

    def test_missing_input_exits_with_diagnostic(self, tmp_path, capsys):
        code = main(["compute", "--input", str(tmp_path / "nope.ttl")])
        assert code == 3
        assert "repro: error:" in capsys.readouterr().err

    def test_malformed_json_store_input(self, corpus_file, tmp_path, capsys):
        # --workers with a non-cube_masking method is a library error, not a crash
        code = main(["compute", "--input", str(corpus_file),
                     "--method", "baseline", "--workers", "2"])
        assert code == 3
        assert "cube_masking" in capsys.readouterr().err


class TestResilienceFlags:
    def test_checkpoint_and_resume_roundtrip(self, corpus_file, tmp_path, capsys):
        # compare the canonical JSON store (deterministic), not the RDF
        # serialisation, whose blank-node labels differ between runs
        ckpt = tmp_path / "run.jsonl"
        out1 = tmp_path / "first.json"
        code = main(["compute", "--input", str(corpus_file), "--method", "cube_masking",
                     "--checkpoint", str(ckpt), "--json-output", str(out1)])
        assert code == 0
        assert ckpt.exists()
        out2 = tmp_path / "second.json"
        code = main(["compute", "--input", str(corpus_file), "--method", "cube_masking",
                     "--checkpoint", str(ckpt), "--resume", "--json-output", str(out2)])
        assert code == 0
        assert out1.read_text() == out2.read_text()

    def test_existing_checkpoint_without_resume_fails(self, corpus_file, tmp_path, capsys):
        ckpt = tmp_path / "run.jsonl"
        assert main(["compute", "--input", str(corpus_file), "--checkpoint", str(ckpt)]) == 0
        code = main(["compute", "--input", str(corpus_file), "--checkpoint", str(ckpt)])
        assert code == 3
        assert "resume" in capsys.readouterr().err

    def test_workers_flag(self, corpus_file, tmp_path):
        out = tmp_path / "par.json"
        seq = tmp_path / "seq.json"
        main(["compute", "--input", str(corpus_file), "--method", "cube_masking",
              "--json-output", str(seq)])
        code = main(["compute", "--input", str(corpus_file), "--method", "cube_masking",
                     "--workers", "2", "--max-retries", "1", "--checkpoint",
                     str(tmp_path / "w.jsonl"), "--json-output", str(out)])
        assert code == 0
        assert out.read_text() == seq.read_text()


class TestValidate:
    def test_valid_corpus_passes(self, corpus_file):
        assert main(["validate", "--input", str(corpus_file)]) == 0

    def test_broken_corpus_fails(self, corpus_file, tmp_path, capsys):
        text = corpus_file.read_text()
        broken = tmp_path / "broken.ttl"
        broken.write_text(
            text + '\n<http://x.example/orphan> a <http://purl.org/linked-data/cube#Observation> .\n'
        )
        assert main(["validate", "--input", str(broken)]) == 1
        assert "IC-1" in capsys.readouterr().out


class TestInspect:
    def test_inspect_prints_profile(self, corpus_file, capsys):
        code = main(["inspect", "--input", str(corpus_file)])
        assert code == 0
        out = capsys.readouterr().out
        assert "CubeSpace" in out
        assert "hierarchy" in out


class TestInspectStore:
    @pytest.fixture
    def store_file(self, corpus_file, tmp_path):
        path = tmp_path / "links.json"
        assert main(["compute", "--input", str(corpus_file),
                     "--json-output", str(path)]) == 0
        return path

    def test_inspect_json_store_prints_profile(self, store_file, capsys):
        assert main(["inspect", "--input", str(store_file)]) == 0
        out = capsys.readouterr().out
        assert "relationship store" in out
        assert "pairs: full=" in out
        assert "degree histogram" in out

    def test_inspect_missing_store_fails_cleanly(self, tmp_path, capsys):
        code = main(["inspect", "--input", str(tmp_path / "absent.json")])
        assert code == 3
        assert "error:" in capsys.readouterr().err


class TestServe:
    def test_serve_missing_store_fails_cleanly(self, tmp_path, capsys):
        code = main(["serve", "--store", str(tmp_path / "absent.json")])
        assert code == 3
        assert "error:" in capsys.readouterr().err

    def test_serve_end_to_end(self, corpus_file, tmp_path):
        """`repro compute --json-output` then `repro serve` answers HTTP."""
        import json
        import urllib.request

        from repro.core import ObservationSpace
        from repro.service import QueryEngine, start_server
        from repro.store import load_relationships

        store = tmp_path / "links.json"
        assert main(["compute", "--input", str(corpus_file),
                     "--json-output", str(store)]) == 0
        # same wiring _cmd_serve performs, on an ephemeral port
        result = load_relationships(store)
        cube = load_cubespace(parse_turtle(corpus_file.read_text()))
        space = ObservationSpace.from_cubespace(cube)
        server = start_server(QueryEngine(result, space))
        host, port = server.server_address
        try:
            with urllib.request.urlopen(f"http://{host}:{port}/healthz") as response:
                body = json.load(response)
            assert body["status"] == "ok"
            assert body["observations"] == len(space)
        finally:
            server.shutdown()
            server.server_close()
