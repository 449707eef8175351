"""CLI end-to-end tests."""

from __future__ import annotations

import multiprocessing

import numpy as np
import pytest

from repro.cli import main
from repro.serve.artifact import ARTIFACT_KIND
from repro.store import Container
from repro.stream.tracking import HISTORY_KIND
from tests.conftest import edit_manifest, flip_member_byte
from tests.oracles import load_report


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

        from repro.bench import kernbench

        report = load_report(Path(__file__).parent.parent / "BENCH_kernels.json")
        monkeypatch.setattr(kernbench, "run_kernel_bench", lambda seed: report)
        return report

    def test_every_floor_met_exit_0_and_report_written(self, committed, tmp_path, capsys):
        out = tmp_path / "k.json"
        assert main(["bench", "kernels", "-o", str(out)]) == 0
        assert load_report(out) == committed
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
                     ["bench", "kernels", "--baseline", "BENCH_kernels.json"],
                     ["convert", "old.npz", "new"]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2, argv
        capsys.readouterr()


@pytest.fixture(scope="module")
def small_model(tmp_path_factory):
    """A 60-vertex, K=2 ``detect --export-artifact`` container."""
    tmp = tmp_path_factory.mktemp("small_model")
    main(["generate", "--vertices", "60", "--communities", "2",
          "--output", str(tmp / "g.txt")])
    main(["detect", "--edges", str(tmp / "g.txt"), "-k", "2", "--iterations", "5",
          "--export-artifact", str(tmp / "model")])
    return tmp / "model"


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
        # the library's own range checks, before any file is read or written
        (["detect", "--edges", "/no/such/g.txt", "-k", "0"], "--communities must be >= 1"),
        (["detect", "--edges", "/no/such/g.txt", "-k", "2", "--mini-batch", "0"],
         "mini_batch_vertices must be >= 1"),
        (["generate", "--vertices", "0", "--output", "/no/such/dir/g.txt"],
         "--vertices must be >= 1"),
        # query / serve / stream: every value flag, before any file is read
        (["query", "--artifact", "/no/such/m", "--top", "0", "membership", "1"], "--top"),
        (["query", "--artifact", "/no/such/m", "--backend", "nope", "link", "0", "1"],
         "--backend"),
        (["query", "--artifact", "/no/such/m", "membership", "x"], "integer ids"),
        (["serve", "--artifact", "/no/such/m", "--workers", "-1"], "--workers"),
        (["serve", "--artifact", "/no/such/m", "--max-batch", "0"], "--max-batch"),
        (["serve", "--artifact", "/no/such/m", "--deadline-ms", "0"], "--deadline-ms"),
        (["serve", "--artifact", "/no/such/m", "--slo-p99-ms", "0"], "--slo-p99-ms"),
        (["serve", "--artifact", "/no/such/m", "--drift-window", "-1"], "--drift-window"),
        (["stream", "--edges", "/no/such/g.txt", "-k", "0"], "--communities must be >= 1"),
        (["stream", "--edges", "/no/such/g.txt", "-k", "2", "--iterations", "0"],
         "--iterations"),
        (["stream", "--edges", "/no/such/g.txt", "-k", "2", "--generations", "0"],
         "--generations"),
        (["stream", "--edges", "/no/such/g.txt", "-k", "2", "--base-fraction", "0"],
         "--base-fraction"),
        (["stream", "--edges", "/no/such/g.txt", "-k", "2", "--base-fraction", "2"],
         "--base-fraction"),
        (["stream", "--edges", "/no/such/g.txt", "-k", "2", "--workers", "-1"], "--workers"),
        (["stream", "--edges", "/no/such/g.txt", "-k", "2", "--drift-window", "-1"],
         "--drift-window"),
        (["stream", "--edges", "/no/such/g.txt", "-k", "2", "--follow",
          "--trigger-edges", "0"], "max_edges must be >= 1"),
        (["stream", "--edges", "/no/such/g.txt", "-k", "2", "--follow",
          "--stall-deadline", "0"], "--stall-deadline"),
        # checked before the table is computed or the model is loaded
        (["benchmark", "-e", "table3", "--csv", "/no/such/dir/x.csv"], "--csv"),
        (["auc", "--edges", "/no/such/g.txt", "--artifact", "/no/such/m",
          "--heldout-fraction", "2"], "--heldout-fraction"),
        (["auc", "--edges", "/no/such/g.txt", "--artifact", "/no/such/m",
          "--seed", "-1"], "--seed"),
        (["detect", "--edges", "/no/such/g.txt", "-k", "2",
          "--heldout-fraction", "0"], "--heldout-fraction"),
        # a NaN posterior 4000 iterations later, or a raw traceback
        (["detect", "--edges", "/no/such/g.txt", "-k", "2", "--step", "-1"],
         "step size a must be > 0"),
        (["detect", "--edges", "/no/such/g.txt", "-k", "2", "--step", "0"],
         "step size a must be > 0"),
        (["generate", "--dataset", "com-DBLP", "--scale", "-1",
          "--output", "/no/such/dir/g.txt"], "--scale must be > 0"),
        (["generate", "--dataset", "com-DBLP", "--scale", "0",
          "--output", "/no/such/dir/g.txt"], "--scale must be > 0"),
        # covers of the untrained random init, or every vertex in every community
        (["detect", "--edges", "/no/such/g.txt", "-k", "2", "--iterations", "0"],
         "--iterations must be >= 1"),
        (["detect", "--edges", "/no/such/g.txt", "-k", "2", "--iterations", "-3"],
         "--iterations must be >= 1"),
        (["detect", "--edges", "/no/such/g.txt", "-k", "2", "--threshold", "0"],
         "--threshold must be in (0, 1]"),
        (["detect", "--edges", "/no/such/g.txt", "-k", "2", "--threshold", "-0.5"],
         "--threshold must be in (0, 1]"),
        (["detect", "--edges", "/no/such/g.txt", "-k", "2", "--threshold", "1.5"],
         "--threshold must be in (0, 1]"),
        (["detect", "--edges", "/no/such/g.txt", "-k", "2", "--threshold", "nan"],
         "--threshold must be in (0, 1]"),
        # ranges checked where the flags are declared, as the line is parsed
        (["chaos", "--seed", "-1"], "--seed must be >= 0"),
        (["detect", "--edges", "/no/such/g.txt", "-k", "2", "--seed", "-1"],
         "--seed must be >= 0"),
        (["generate", "--seed", "-1", "--output", "/no/such/dir/g.txt"], "--seed must be >= 0"),
        (["stream", "--edges", "/no/such/g.txt", "-k", "2", "--seed", "-1"],
         "--seed must be >= 0"),
        (["detect", "--edges", "/no/such/g.txt", "-k", "2", "--heldout-fraction", "nan"],
         "--heldout-fraction must be in (0, 1)"),
        (["bench", "kernels", "--output", "/no/such/dir/r.json"], "--output"),
        (["benchmark", "-e", "no-such-figure", "--csv", "/no/such/dir/x.csv"], "--csv"),
        (["query", "--artifact", "/no/such/m", "--backend", "", "membership", "1"],
         "--backend must be a registered kernel backend"),
        # sizes that reached the library and came back naming no flag
        (["generate", "--vertices", "-5", "--output", "/no/such/dir/g.txt"],
         "--vertices must be >= 1"),
        (["chaos", "--vertices", "-5"], "--vertices must be >= 1"),
        (["generate", "--communities", "0", "--output", "/no/such/dir/g.txt"],
         "--communities must be >= 2"),
        (["chaos", "--communities", "0"], "--communities must be >= 2"),
        (["chaos", "-k", "1"], "--communities must be >= 2"),
        (["detect", "--edges", "/no/such/g.txt", "--communities", "0"],
         "--communities must be >= 1"),
        (["stream", "--edges", "/no/such/g.txt", "--communities", "-2"],
         "--communities must be >= 1"),
        (["convert-graph", "--input", "/no/such/g.txt", "--output", "/no/such/g",
          "--vertices", "0"], "--vertices must be >= 1"),
        (["generate", "--dataset", "com-DBLP", "--scale", "nan",
          "--output", "/no/such/dir/g.txt"], "--scale must be > 0"),
        # a container path that is a directory is refused, not removed
        (["detect", "--edges", "/no/such/g.txt", "-k", "2", "--checkpoint", "/"],
         "--checkpoint must be a file path, not a directory"),
        (["stream", "--edges", "/no/such/g.txt", "-k", "2", "--artifact", "/"],
         "--artifact must be a file path, not a directory"),
    ])
    def test_one_error_line_exit_2(self, argv, needle, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and needle in captured.err
        assert len(captured.err.strip().splitlines()) == 1

    @pytest.mark.parametrize("argv, needle", [
        (["detect", "--edges", "{missing}", "-k", "2"], "--edges: no such file"),
        (["auc", "--edges", "{missing}", "--artifact", "{model}"], "--edges: no such file"),
        (["stream", "--edges", "{missing}", "--workdir", "{tmp}/w", "-k", "2"],
         "--edges: no such file"),
        (["convert-graph", "--input", "{missing}", "--output", "{tmp}/g"],
         "--input: no such file"),
        (["convert-graph", "--input", "{words}", "--output", "{tmp}/g"], "--input"),
        (["detect", "--edges", "{words}", "-k", "2"], "not an edge list of integer ids"),
        (["detect", "--edges", "{triangle}", "-k", "2"], "non-link pairs"),
    ])
    def test_an_unusable_graph_file_is_one_error_line(self, argv, needle, tmp_path, capsys):
        (tmp_path / "words.txt").write_text("a b\nc d\n")
        (tmp_path / "triangle.txt").write_text("0 1\n1 2\n0 2\n")
        model = tmp_path / "model"
        if "auc" in argv:
            main(["generate", "--vertices", "60", "--communities", "2",
                  "--output", str(tmp_path / "g.txt")])
            main(["detect", "--edges", str(tmp_path / "g.txt"), "-k", "2",
                  "--iterations", "5", "--export-artifact", str(model)])
            capsys.readouterr()
        paths = {"missing": tmp_path / "missing.txt", "words": tmp_path / "words.txt",
                 "triangle": tmp_path / "triangle.txt", "model": model, "tmp": tmp_path}
        self.test_one_error_line_exit_2([a.format(**paths) for a in argv], needle, capsys)

    @pytest.mark.parametrize("query, needle", [
        (["membership", "99999"], "unknown node id 99999"),
        (["recommend", "-3"], "unknown node id -3"),
        (["link", "1", "99999"], "node id out of range"),
        (["community", "7"], "community 7 out of range"),
    ])
    def test_a_query_for_an_id_the_artifact_lacks_is_one_error_line(
        self, query, needle, small_model, capsys
    ):
        argv = ["query", "--artifact", str(small_model), *query]
        self.test_one_error_line_exit_2(argv, needle, capsys)


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

    def test_detect_leaves_no_process(self, tmp_path, capsys):
        edges = tmp_path / "g.txt"
        main(["generate", "--vertices", "120", "--communities", "3",
              "--output", str(edges)])
        before = set(multiprocessing.active_children())
        assert main(["detect", "--edges", str(edges), "-k", "3", "--iterations", "40",
                     "--output", str(tmp_path / "c.txt")]) == 0
        assert set(multiprocessing.active_children()) == before

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

    @pytest.mark.parametrize("start", [7, 8])
    def test_stops_at_iterations(self, tmp_path, capsys, start):
        """``--iterations 25`` reports in chunks of 2 and must not end on 26,
        whether it starts at 0 or resumes from an odd or even iteration."""
        from repro.core.checkpoint import load_state_checkpoint
        from repro.store import Container

        edges = tmp_path / "g.txt"
        main(["generate", "--vertices", "120", "--communities", "3",
              "--output", str(edges)])
        detect = ["detect", "--edges", str(edges), "-k", "3", "--mini-batch", "32",
                  "--output", str(tmp_path / "c.txt")]
        assert main(detect + ["--iterations", "25", "--checkpoint", str(tmp_path / "whole")]) == 0
        assert main(detect + ["--iterations", str(start),
                              "--checkpoint", str(tmp_path / "part")]) == 0
        assert main(detect + ["--iterations", "25", "--resume", str(tmp_path / "part"),
                              "--checkpoint", str(tmp_path / "part")]) == 0
        err = capsys.readouterr().err
        assert "iter     26" not in err
        whole, part = load_state_checkpoint(tmp_path / "whole"), load_state_checkpoint(tmp_path / "part")
        assert whole[1] == part[1] == 25
        for name in ("pi", "phi_sum", "theta"):
            assert np.array_equal(getattr(whole[0], name), getattr(part[0], name))
        assert "rng_state" not in Container(tmp_path / "part").meta

    def test_resume_continues_an_mp_auto_checkpoint(self, tmp_path, capsys):
        """An iteration is a function of (seed, t, state): ``--resume``
        continues a checkpoint of a multiprocess run (written with
        ``save_state_checkpoint``) and ends where an uninterrupted
        ``detect`` does."""
        from repro.core.checkpoint import load_state_checkpoint, save_state_checkpoint
        from repro.dist.mp import MultiprocessAMMSBSampler
        from repro.graph.io import load_edge_list
        from repro.graph.split import split_heldout

        edges = tmp_path / "g.txt"
        main(["generate", "--vertices", "120", "--communities", "3",
              "--output", str(edges)])
        detect = ["detect", "--edges", str(edges), "-k", "3", "--mini-batch", "32",
                  "--iterations", "20", "--output", str(tmp_path / "c.txt")]
        assert main(detect + ["--checkpoint", str(tmp_path / "whole")]) == 0
        _, _, config = load_state_checkpoint(tmp_path / "whole")
        # detect's split: --heldout-fraction 0.02 under --seed
        split = split_heldout(
            load_edge_list(str(edges)), 0.02, np.random.default_rng(config.seed)
        )
        with MultiprocessAMMSBSampler(split.train, config, n_workers=2, heldout=split) as mp_run:
            mp_run.run(12)
            save_state_checkpoint(
                tmp_path / "auto", mp_run.state_snapshot(), mp_run.iteration, mp_run.config
            )
        capsys.readouterr()
        assert main(detect + ["--resume", str(tmp_path / "auto"),
                              "--checkpoint", str(tmp_path / "resumed")]) == 0
        assert "resumed from" in capsys.readouterr().err
        whole = load_state_checkpoint(tmp_path / "whole")
        resumed = load_state_checkpoint(tmp_path / "resumed")
        assert whole[1] == resumed[1] == 20
        for name in ("pi", "phi_sum", "theta"):
            assert np.array_equal(getattr(whole[0], name), getattr(resumed[0], name))

    def test_an_exported_artifact_resumes_like_a_checkpoint(self, tmp_path, capsys):
        """``--export-artifact`` writes the state's own rows and ``phi_sum``
        in one container: ``detect --resume`` continues it where the
        ``--checkpoint`` of the same run continues, and ``auc
        --checkpoint`` reads it as ``auc --artifact`` does."""
        from repro.core.checkpoint import load_state_checkpoint

        edges = tmp_path / "g.txt"
        main(["generate", "--vertices", "120", "--communities", "3",
              "--output", str(edges)])
        detect = ["detect", "--edges", str(edges), "-k", "3", "--mini-batch", "32",
                  "--output", str(tmp_path / "c.txt")]
        assert main(detect + ["--iterations", "20", "--checkpoint", str(tmp_path / "ck"),
                              "--export-artifact", str(tmp_path / "model")]) == 0
        for source in ("ck", "model"):
            assert main(detect + ["--iterations", "30", "--resume", str(tmp_path / source),
                                  "--checkpoint", str(tmp_path / f"from-{source}")]) == 0
        via_ck = load_state_checkpoint(tmp_path / "from-ck")
        via_model = load_state_checkpoint(tmp_path / "from-model")
        assert via_ck[1] == via_model[1] == 30
        for name in ("pi", "phi_sum", "theta"):
            assert np.array_equal(getattr(via_ck[0], name), getattr(via_model[0], name))
        capsys.readouterr()
        aucs = []
        for flag in ("--checkpoint", "--artifact"):
            assert main(["auc", "--edges", str(edges), flag, str(tmp_path / "model")]) == 0
            aucs.append(capsys.readouterr().out)
        assert aucs[0] == aucs[1]

    def test_an_unservable_export_is_one_line_exit_3(self, tmp_path, capsys, monkeypatch):
        """Rows the server cannot serve: one ``cannot export artifact:``
        line, exit 3, the covers written and the container a checkpoint."""
        import repro.serve.artifact as artifact_module
        from repro.core.checkpoint import load_state_checkpoint

        edges = tmp_path / "g.txt"
        main(["generate", "--vertices", "120", "--communities", "3",
              "--output", str(edges)])
        capsys.readouterr()
        monkeypatch.setattr(artifact_module, "_rows_valid", lambda pi: False)
        assert main(["detect", "--edges", str(edges), "-k", "3", "--mini-batch", "32",
                     "--iterations", "10", "--output", str(tmp_path / "c.txt"),
                     "--export-artifact", str(tmp_path / "model")]) == 3
        err = capsys.readouterr().err.strip().splitlines()
        assert err[-1].startswith("cannot export artifact: ")
        assert sum("cannot export artifact" in line for line in err) == 1
        assert (tmp_path / "c.txt").exists()
        assert load_state_checkpoint(tmp_path / "model")[1] == 10

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
            flip_member_byte(ckpt, "pi", at=-3, mask=0x40)
        else:
            edit_manifest(ckpt, lambda m: m["meta"].update(iteration=7))
        capsys.readouterr()
        assert main(detect + ["--resume", str(ckpt)]) == 3
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 2 and err[0].startswith("loaded ")  # the graph, then the refusal
        assert err[1].startswith("cannot load checkpoint: ") and str(ckpt) in err[1]
        if damage == "legacy-npz":
            assert "regular file, not a store container" in err[1] and "not read" in err[1]


class TestChaos:
    ARGS = ["chaos", "--vertices", "200", "-k", "3",
            "--workers", "3", "--iterations", "6", "--seed", "2026"]

    def test_drill_reports_recovery(self, capsys):
        rc = main(self.ARGS)
        assert rc == 0
        out = capsys.readouterr().out
        assert "re-partitioned across survivors" in out
        digests = {
            line.split()[-1] for line in out.splitlines()
            if line.strip().startswith(("crashed", "fault-free", "sequential"))
        }
        assert len(digests) == 1  # the three runs, one trajectory
        assert "drill passed" in out
        assert "stale_batches" in out

    def test_a_digest_mismatch_fails_the_drill(self, capsys, monkeypatch):
        import repro.cli

        seen = []
        monkeypatch.setattr(repro.cli, "_state_digest", lambda state: seen.append(1) or str(len(seen)))
        assert main(self.ARGS) == 1
        captured = capsys.readouterr()
        assert "left the fault-free trajectory" in captured.err
        assert "drill passed" not in captured.out


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
        assert Container(tmp_path / "wd" / "artifact").kind == ARTIFACT_KIND
        assert Container(tmp_path / "wd" / "history").kind == HISTORY_KIND

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

    @pytest.mark.parametrize("mode", [[], ["--follow", "--trigger-edges", "50",
                                            "--poll-interval", "0.05", "--max-seconds", "1"]])
    def test_stream_leaves_no_process(self, tmp_path, capsys, mode):
        """The trainer's draw process ends with the command, a --follow run
        drained at its deadline included."""
        edges = tmp_path / "g.txt"
        main(["generate", "--vertices", "130", "--communities", "3",
              "--output", str(edges)])
        before = set(multiprocessing.active_children())
        assert main(["stream", "--edges", str(edges), "-k", "3", "--iterations", "10",
                     "--workdir", str(tmp_path / "wd"), *mode]) == 0
        assert set(multiprocessing.active_children()) == before


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
