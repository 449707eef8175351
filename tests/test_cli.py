"""CLI end-to-end tests."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cli import main


class TestGenerate:
    def test_standin(self, tmp_path, capsys):
        out = tmp_path / "g.txt"
        rc = main(["generate", "--dataset", "com-DBLP", "--scale", "2e-3",
                   "--output", str(out)])
        assert rc == 0
        assert out.exists()
        from repro.graph.io import load_edge_list

        g = load_edge_list(out)
        assert g.n_edges > 100

    def test_planted(self, tmp_path):
        out = tmp_path / "p.txt"
        rc = main(["generate", "--vertices", "120", "--communities", "4",
                   "--output", str(out)])
        assert rc == 0
        assert out.exists()

    def test_unknown_dataset(self, tmp_path):
        rc = main(["generate", "--dataset", "nope", "--output",
                   str(tmp_path / "x.txt")])
        assert rc == 2


class TestDetect:
    def test_end_to_end(self, tmp_path, capsys):
        edges = tmp_path / "g.txt"
        main(["generate", "--vertices", "150", "--communities", "3",
              "--output", str(edges)])
        covers = tmp_path / "covers.txt"
        rc = main([
            "detect", "--edges", str(edges), "-k", "3",
            "--iterations", "200", "--mini-batch", "32",
            "--output", str(covers),
        ])
        assert rc == 0
        lines = covers.read_text().strip().splitlines()
        assert 1 <= len(lines) <= 3
        # every line is a space-separated list of valid vertex ids
        for line in lines:
            ids = [int(tok) for tok in line.split()]
            assert all(0 <= v < 150 for v in ids)

    def test_stdout_output(self, tmp_path, capsys):
        edges = tmp_path / "g.txt"
        main(["generate", "--vertices", "100", "--communities", "3",
              "--output", str(edges)])
        rc = main(["detect", "--edges", str(edges), "-k", "3",
                   "--iterations", "100", "--mini-batch", "32"])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.strip()


class TestBenchmark:
    @pytest.mark.parametrize("exp", ["table2", "fig2", "table3", "chunks"])
    def test_experiments_print_tables(self, exp, capsys):
        rc = main(["benchmark", "-e", exp])
        assert rc == 0
        out = capsys.readouterr().out
        assert len(out.splitlines()) >= 4

    def test_unknown_experiment(self):
        assert main(["benchmark", "-e", "fig99"]) == 2

    def test_calibrate(self, capsys):
        rc = main(["calibrate"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "max relative error" in out

    def test_csv_export(self, tmp_path, capsys):
        csv_path = tmp_path / "fig2.csv"
        rc = main(["benchmark", "-e", "fig2", "--csv", str(csv_path)])
        assert rc == 0
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0].startswith("workers,")
        assert len(lines) >= 4


class TestBench:
    """``repro bench`` plumbing over a canned report; the suites themselves
    run at tiny size in ``tests/test_bench_gate.py`` and at full size in CI."""

    @pytest.fixture
    def committed(self, monkeypatch):
        """The committed kernels record stands in for a fresh run."""
        from pathlib import Path

        from repro.bench import gate, kernbench

        report = gate.load_report(Path(__file__).parent.parent / "BENCH_kernels.json")
        monkeypatch.setattr(kernbench, "run_kernel_bench", lambda seed: report)
        return report

    def test_every_floor_met_exit_0_and_report_written(self, committed, tmp_path, capsys):
        from repro.bench import gate

        out = tmp_path / "k.json"
        assert main(["bench", "kernels", "-o", str(out)]) == 0
        assert gate.load_report(out) == committed
        captured = capsys.readouterr()
        assert "floors" in captured.out and "floors met" in captured.err

    def test_one_missed_floor_exit_2_names_it(self, committed, capsys):
        committed["kernels"]["phi_gradient"]["speedups"]["fused"] = 0.5
        assert main(["bench", "kernels"]) == 2
        err = capsys.readouterr().err
        assert "kernels/phi_gradient/speedups/fused" in err
        assert "link_probability" not in err

    def test_removed_commands_and_options_are_gone(self, capsys):
        for argv in (["bench-check"], ["bench-kernels"], ["bench-mem"],
                     ["bench-serve"], ["bench-stream"], ["bench", "stream"],
                     ["bench", "kernels", "--quick"],
                     ["bench", "kernels", "--baseline", "BENCH_kernels.json"]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2, argv
        capsys.readouterr()


class TestArgumentErrors:
    """An unusable argument value is one ``error:`` line and exit 2, never a
    traceback and never after the work is done."""

    @pytest.mark.parametrize("argv, needle", [
        (["bench", "kernels", "--seed", "-1"], "--seed"),
        (["bench", "store", "-o", "/no/such/dir/r.json"], "--output"),
        (["chaos", "--workers", "1"], ">= 2 workers"),
        (["chaos", "--iterations", "0"], "--iterations"),
        (["chaos", "--rdma-failure-rate", "1.5"], "rdma_failure_rate"),
        (["chaos", "--heartbeat-timeout", "0"], "--heartbeat-timeout"),
        (["chaos-serve", "--quick", "--seed", "-3"], "--seed"),
        (["chaos-serve", "--quick", "-o", "/no/such/dir/r.json"], "--output"),
        (["chaos-stream", "--quick", "--seed", "-3"], "--seed"),
        (["chaos-stream", "--quick", "-o", "/no/such/dir/r.json"], "--output"),
    ])
    def test_one_error_line_exit_2(self, argv, needle, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and needle in captured.err
        assert len(captured.err.strip().splitlines()) == 1


class TestDetectCheckpointing:
    def test_checkpoint_and_resume(self, tmp_path, capsys):
        edges = tmp_path / "g.txt"
        main(["generate", "--vertices", "120", "--communities", "3",
              "--output", str(edges)])
        ckpt = tmp_path / "run.npz"
        rc = main(["detect", "--edges", str(edges), "-k", "3",
                   "--iterations", "100", "--mini-batch", "32",
                   "--checkpoint", str(ckpt), "--output",
                   str(tmp_path / "c1.txt")])
        assert rc == 0 and ckpt.exists()
        # Resume with a larger budget: continues from iteration 100.
        rc = main(["detect", "--edges", str(edges), "-k", "3",
                   "--iterations", "200", "--mini-batch", "32",
                   "--resume", str(ckpt), "--output",
                   str(tmp_path / "c2.txt")])
        assert rc == 0
        assert (tmp_path / "c2.txt").exists()

    def test_killed_run_resumes_bit_for_bit(self, tmp_path, capsys):
        """A run killed after a ``--checkpoint`` write and resumed ends
        where the uninterrupted run ends: same covers, same perplexity
        window (the last report line averages it)."""
        edges = tmp_path / "g.txt"
        main(["generate", "--vertices", "120", "--communities", "3",
              "--output", str(edges)])
        detect = ["detect", "--edges", str(edges), "-k", "3", "--mini-batch", "32"]
        assert main(detect + ["--iterations", "100", "--output", str(tmp_path / "whole.txt"),
                              "--checkpoint", str(tmp_path / "whole")]) == 0
        whole = capsys.readouterr().err.strip().splitlines()
        # the "kill": a run that stops at iteration 50 having just checkpointed
        assert main(detect + ["--iterations", "50", "--output", str(tmp_path / "half.txt"),
                              "--checkpoint", str(tmp_path / "half")]) == 0
        capsys.readouterr()
        assert main(detect + ["--iterations", "100", "--output", str(tmp_path / "resumed.txt"),
                              "--resume", str(tmp_path / "half"),
                              "--checkpoint", str(tmp_path / "half")]) == 0
        resumed = capsys.readouterr().err.strip().splitlines()
        last_report = [line for line in whole if line.startswith("iter")][-1]
        assert last_report.split()[1] == "100"
        assert last_report in resumed  # the perplexity window continued
        from repro.core.checkpoint import load_state_checkpoint

        a, b = load_state_checkpoint(tmp_path / "whole"), load_state_checkpoint(tmp_path / "half")
        assert a[1] == b[1] == 100
        for name in ("pi", "phi_sum", "theta"):
            assert np.array_equal(getattr(a[0], name), getattr(b[0], name))

    @pytest.mark.parametrize("damage", ["missing", "legacy-npz", "flipped-byte", "edited-manifest"])
    def test_unloadable_checkpoint_is_one_line_exit_3(self, tmp_path, capsys, damage):
        import json

        edges = tmp_path / "g.txt"
        main(["generate", "--vertices", "120", "--communities", "3",
              "--output", str(edges)])
        detect = ["detect", "--edges", str(edges), "-k", "3", "--mini-batch", "32",
                  "--iterations", "20", "--output", str(tmp_path / "c.txt")]
        ckpt = tmp_path / "ck"
        assert main(detect + ["--checkpoint", str(ckpt)]) == 0
        if damage == "missing":
            ckpt = tmp_path / "nope"
        elif damage == "legacy-npz":
            ckpt = tmp_path / "old.npz"
            np.savez(ckpt, _meta=json.dumps({"version": 1}), pi=np.ones((2, 2)))
        elif damage == "flipped-byte":
            raw = bytearray((ckpt / "pi.npy").read_bytes())
            raw[-3] ^= 0x40
            (ckpt / "pi.npy").write_bytes(bytes(raw))
        else:
            manifest = json.loads((ckpt / "manifest.json").read_text())
            manifest["meta"]["iteration"] = 7
            (ckpt / "manifest.json").write_text(json.dumps(manifest))
        capsys.readouterr()
        assert main(detect + ["--resume", str(ckpt)]) == 3
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 2 and err[0].startswith("loaded ")  # the graph, then the refusal
        assert err[1].startswith("cannot load checkpoint: ") and str(ckpt) in err[1]
        if damage == "legacy-npz":
            assert "repro convert" in err[1]


class TestChaos:
    def test_drill_reports_recovery(self, capsys):
        rc = main(["chaos", "--vertices", "120", "-k", "3",
                   "--workers", "3", "--iterations", "6", "--seed", "2026"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "re-partitioned across survivors" in out
        assert "drill passed" in out
        assert "stale_batches" in out


class TestChaosServe:
    def test_drill_passes_and_writes_report(self, tmp_path, capsys):
        import json

        out_path = tmp_path / "chaos_serve.json"
        rc = main(["chaos-serve", "--quick", "--seed", "2026",
                   "--output", str(out_path)])
        assert rc == 0
        captured = capsys.readouterr()
        assert "Serving chaos drill" in captured.out
        assert "drill passed" in captured.out
        assert "worker crash" in captured.err  # plan printed to stderr
        report = json.loads(out_path.read_text())
        assert report["passed"] is True
        assert all(report["invariants"].values())


@pytest.fixture(scope="module")
def trained_artifact(tmp_path_factory):
    """One small trained graph + exported serving artifact + checkpoint."""
    root = tmp_path_factory.mktemp("serving")
    edges = root / "g.txt"
    main(["generate", "--vertices", "80", "--communities", "3",
          "--output", str(edges)])
    artifact = root / "model.npz"
    ckpt = root / "ck.npz"
    rc = main(["detect", "--edges", str(edges), "-k", "3",
               "--iterations", "60", "--mini-batch", "32",
               "--output", str(root / "covers.txt"),
               "--checkpoint", str(ckpt),
               "--export-artifact", str(artifact)])
    assert rc == 0 and artifact.exists() and ckpt.exists()
    return {"edges": edges, "artifact": artifact, "checkpoint": ckpt}


class TestQueryCommand:
    def test_membership(self, trained_artifact, capsys):
        rc = main(["query", "--artifact", str(trained_artifact["artifact"]),
                   "--top", "2", "membership", "5"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2
        community, weight = lines[0].split()
        assert 0 <= int(community) < 3 and 0 < float(weight) <= 1

    def test_link(self, trained_artifact, capsys):
        rc = main(["query", "--artifact", str(trained_artifact["artifact"]),
                   "link", "0", "1", "2", "3"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2
        for line in lines:
            a, b, p = line.split()
            assert 0 < float(p) < 1

    def test_community_and_recommend(self, trained_artifact, capsys):
        rc = main(["query", "--artifact", str(trained_artifact["artifact"]),
                   "--top", "3", "community", "0"])
        assert rc == 0
        assert len(capsys.readouterr().out.strip().splitlines()) == 3
        rc = main(["query", "--artifact", str(trained_artifact["artifact"]),
                   "--top", "3", "recommend", "7"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 3
        assert all(int(line.split()[0]) != 7 for line in lines)

    def test_wrong_arity_exit_2(self, trained_artifact, capsys):
        rc = main(["query", "--artifact", str(trained_artifact["artifact"]),
                   "link", "0"])
        assert rc == 2

    def test_missing_artifact_exit_3(self, tmp_path, capsys):
        rc = main(["query", "--artifact", str(tmp_path / "no.npz"),
                   "membership", "0"])
        assert rc == 3

    def test_backend_override_matches_default(self, trained_artifact, capsys):
        art = str(trained_artifact["artifact"])
        main(["query", "--artifact", art, "--backend", "reference",
              "link", "0", "1"])
        ref = capsys.readouterr().out
        main(["query", "--artifact", art, "--backend", "fused",
              "link", "0", "1"])
        assert capsys.readouterr().out == ref


class TestServeCommand:
    def test_line_protocol(self, trained_artifact, capsys, monkeypatch):
        import io

        script = "link 0 1\nmembership 5 2\nstats\nbogus\nquit\n"
        monkeypatch.setattr("sys.stdin", io.StringIO(script))
        rc = main(["serve", "--artifact", str(trained_artifact["artifact"]),
                   "--workers", "1"])
        assert rc == 0
        captured = capsys.readouterr()
        lines = captured.out.strip().splitlines()
        a, b, p = lines[0].split()
        assert (a, b) == ("0", "1") and 0 < float(p) < 1
        assert '"hot_swaps": 0' in captured.out
        assert "unknown command 'bogus'" in captured.err

    def test_health_probe(self, trained_artifact, capsys, monkeypatch):
        import io
        import json

        monkeypatch.setattr("sys.stdin", io.StringIO("health\nquit\n"))
        rc = main(["serve", "--artifact", str(trained_artifact["artifact"]),
                   "--workers", "1", "--deadline-ms", "1000",
                   "--slo-p99-ms", "50"])
        assert rc == 0
        health = json.loads(capsys.readouterr().out)
        assert health["healthy"] is True and health["ready"] is True
        assert health["workers_alive"] == 1


class TestAucCommand:
    def test_artifact_and_checkpoint_agree(self, trained_artifact, capsys):
        rc = main(["auc", "--edges", str(trained_artifact["edges"]),
                   "--artifact", str(trained_artifact["artifact"])])
        assert rc == 0
        from_artifact = float(capsys.readouterr().out.strip())
        rc = main(["auc", "--edges", str(trained_artifact["edges"]),
                   "--checkpoint", str(trained_artifact["checkpoint"])])
        assert rc == 0
        from_ckpt = float(capsys.readouterr().out.strip())
        assert 0.0 <= from_artifact <= 1.0
        assert from_artifact == pytest.approx(from_ckpt, abs=1e-6)

    def test_requires_exactly_one_source(self, trained_artifact, capsys):
        edges = str(trained_artifact["edges"])
        assert main(["auc", "--edges", edges]) == 2
        assert main(["auc", "--edges", edges,
                     "--artifact", str(trained_artifact["artifact"]),
                     "--checkpoint", str(trained_artifact["checkpoint"])]) == 2

    def test_missing_checkpoint_exit_3(self, trained_artifact, tmp_path, capsys):
        rc = main(["auc", "--edges", str(trained_artifact["edges"]),
                   "--checkpoint", str(tmp_path / "no.npz")])
        assert rc == 3


class TestStreamCommand:
    def test_replay_end_to_end(self, tmp_path, capsys):
        import json

        edges = tmp_path / "g.txt"
        main(["generate", "--vertices", "130", "--communities", "3",
              "--output", str(edges)])
        rc = main(["stream", "--edges", str(edges), "-k", "3",
                   "--iterations", "30", "--generations", "2",
                   "--workdir", str(tmp_path / "wd"),
                   "--drift", "0", "999999"])
        assert rc == 0
        captured = capsys.readouterr()
        # Generation 0 (base) plus one per batch.
        for gen in (0, 1, 2):
            assert f"generation {gen}:" in captured.out
        # Drift JSON for node 0 is the last stdout line; the unknown node
        # goes to stderr without failing the replay.
        drift = json.loads(captured.out.strip().splitlines()[-1])
        assert drift["node"] == 0
        assert drift["first_seen_generation"] == 0
        assert len(drift["generations"]) == 3
        assert "drift 999999" in captured.err
        assert "final artifact" in captured.err
        assert (tmp_path / "wd" / "artifact" / "manifest.json").exists()
        assert (tmp_path / "wd" / "history" / "manifest.json").exists()

    def test_too_few_arrivals_exit_2(self, tmp_path, capsys):
        f = tmp_path / "tiny.txt"
        f.write_text("0 1\n")
        rc = main(["stream", "--edges", str(f), "-k", "2",
                   "--workdir", str(tmp_path / "wd")])
        assert rc == 2
        assert "need at least 2 arrivals" in capsys.readouterr().err

    def test_degenerate_base_prefix_exit_2(self, tmp_path, capsys):
        f = tmp_path / "loops.txt"
        f.write_text("".join(f"{i} {i}\n" for i in range(10)))
        rc = main(["stream", "--edges", str(f), "-k", "2",
                   "--workdir", str(tmp_path / "wd")])
        assert rc == 2
        assert "no usable edges" in capsys.readouterr().err

    def test_resume_continues_and_fresh_workdir_refused(self, tmp_path, capsys):
        edges = tmp_path / "g.txt"
        main(["generate", "--vertices", "130", "--communities", "3",
              "--output", str(edges)])
        base_args = ["stream", "--edges", str(edges), "-k", "3",
                     "--iterations", "20", "--generations", "1",
                     "--workdir", str(tmp_path / "wd")]
        assert main(base_args) == 0
        capsys.readouterr()
        # A fresh run refuses the used workdir; --resume continues it.
        assert main(base_args) == 2
        assert "--resume" in capsys.readouterr().err
        rc = main(base_args + ["--resume"])
        assert rc == 0
        captured = capsys.readouterr()
        assert "resumed generation" in captured.err
        assert "final artifact" in captured.err

    def test_follow_bounded_run(self, tmp_path, capsys):
        edges = tmp_path / "g.txt"
        main(["generate", "--vertices", "130", "--communities", "3",
              "--output", str(edges)])
        rc = main(["stream", "--edges", str(edges), "-k", "3",
                   "--iterations", "10", "--workdir", str(tmp_path / "wd"),
                   "--follow", "--trigger-edges", "50",
                   "--poll-interval", "0.05", "--max-seconds", "2"])
        assert rc == 0
        captured = capsys.readouterr()
        assert "following" in captured.err
        assert "follow ended" in captured.err


class TestChaosStream:
    def test_drill_passes_and_writes_report(self, tmp_path, capsys):
        import json

        out_path = tmp_path / "chaos_stream.json"
        rc = main(["chaos-stream", "--quick", "--seed", "2026",
                   "--output", str(out_path)])
        assert rc == 0
        captured = capsys.readouterr()
        assert "result: PASS" in captured.out
        assert "all durability invariants held" in captured.err
        report = json.loads(out_path.read_text())
        assert report["passed"] is True
        assert all(report["invariants"].values())
        assert set(report["invariants"]) >= {
            "no_lost_edges",
            "no_duplicate_edges",
            "csr_matches_reference",
            "torn_tail_repaired",
            "quarantine_persisted",
            "source_retry_recovered",
        }


class TestServeDrift:
    def test_drift_verb_over_line_protocol(self, trained_artifact, capsys,
                                           monkeypatch):
        import io
        import json

        monkeypatch.setattr("sys.stdin", io.StringIO("drift 5\nquit\n"))
        rc = main(["serve", "--artifact", str(trained_artifact["artifact"]),
                   "--workers", "1", "--drift-window", "4"])
        assert rc == 0
        drift = json.loads(capsys.readouterr().out)
        assert drift["node"] == 5
        assert drift["first_seen_generation"] == 0
        assert len(drift["generations"]) == 1

    def test_drift_verb_without_window_reports_error(self, trained_artifact,
                                                     capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO("drift 5\nquit\n"))
        rc = main(["serve", "--artifact", str(trained_artifact["artifact"]),
                   "--workers", "1"])
        assert rc == 0  # the server keeps running; the error is per-query
        assert "drift" in capsys.readouterr().err
