import io
import json
import re

import pytest

from specqd import cli
from specqd.cli import build_parser, main
from specqd.tinylm import direct_cast_mxfp4, model_checksum
from specqd import artifacts, specdec
from specqd.mxfp4 import quantize_direct_cast


@pytest.fixture()
def models(tmp_path):
    """A small target and its MXFP4 cast on disk, plus a prompts file."""
    target = tmp_path / "target.bin"
    draft = tmp_path / "draft.bin"
    assert main([
        "model-init", "--seed", "0", "--d-model", "32", "--n-layers", "2",
        "--n-heads", "2", "--d-ff", "64", "--max-seq-len", "128",
        "--out", str(target),
    ]) == 0
    assert main(["quantize", "--model", str(target), "--out", str(draft)]) == 0
    prompts = tmp_path / "prompts.txt"
    prompts.write_text("1 2 3\n9\n40 41\n")
    return target, draft, prompts


class TestModelInit:
    def test_deterministic_across_runs(self, tmp_path, capsys):
        a, b = tmp_path / "a.bin", tmp_path / "b.bin"
        for out in (a, b):
            main(["model-init", "--seed", "4", "--d-model", "32",
                  "--n-heads", "2", "--out", str(out)])
        assert a.read_bytes() == b.read_bytes()

    def test_bad_config_returns_1(self, tmp_path, capsys):
        rc = main(["model-init", "--d-model", "33", "--n-heads", "2",
                   "--out", str(tmp_path / "x.bin")])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_unallocatable_model_returns_1(self, tmp_path, capsys):
        # numpy refuses a 45.5 PiB position table before allocating any of it.
        out = tmp_path / "x.bin"
        rc = main(["model-init", "--max-seq-len", "100000000000000",
                   "--out", str(out)])
        assert rc == 1
        assert "error: Unable to allocate" in capsys.readouterr().err
        assert not out.exists()


class TestQuantize:
    def test_reduction_reported(self, models, tmp_path, capsys):
        target, _, _ = models
        capsys.readouterr()
        rc = main(["quantize", "--model", str(target),
                   "--out", str(tmp_path / "q2.bin")])
        assert rc == 0
        assert "7.53x reduction" in capsys.readouterr().out

    def test_quantized_file_loads(self, models):
        _, draft, _ = models
        m = artifacts.load_model(draft)
        assert m.is_quantized and m.gemm_path == "int8"
        assert b"gemm_path" not in draft.read_bytes()

    @pytest.mark.parametrize("command", ["quantize", "generate"])
    def test_no_gemm_path_flag(self, models, tmp_path, capsys, command):
        # The weights' kind alone picks the kernel.
        target, _, prompts = models
        argv = {
            "quantize": ["quantize", "--model", str(target)],
            "generate": ["generate", "--target", str(target),
                         "--prompts", str(prompts)],
        }[command]
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--out", str(tmp_path / "o"), "--gemm-path", "int8"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --gemm-path" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["quantize", "generate"])
    def test_corrupt_config_returns_1(self, models, tmp_path, capsys, command):
        target, _, prompts = models
        bad = tmp_path / "bad.bin"
        data = target.read_bytes()
        assert data.count(b"d_model=32") == 1
        bad.write_bytes(data.replace(b"d_model=32", b"d_model=''"))
        argv = {
            "quantize": ["quantize", "--model", str(bad),
                         "--out", str(tmp_path / "q.bin")],
            "generate": ["generate", "--target", str(bad), "--prompts",
                         str(prompts), "--out", str(tmp_path / "out")],
        }[command]
        capsys.readouterr()
        assert main(argv) == 1
        assert "error: bad model config block" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["quantize", "generate"])
    def test_corrupt_tensor_header_returns_1(self, models, tmp_path, capsys,
                                             command):
        target, _, prompts = models
        bad = tmp_path / "bad.bin"
        data = bytearray(target.read_bytes())
        # The section name, then the tensor's magic, version, dtype and
        # layout tags, then its u64 rows field.
        rows_at = data.index(b"tok_emb") + len(b"tok_emb") + 8
        data[rows_at:rows_at + 8] = (2**62).to_bytes(8, "little")
        bad.write_bytes(bytes(data))
        argv = {
            "quantize": ["quantize", "--model", str(bad),
                         "--out", str(tmp_path / "q.bin")],
            "generate": ["generate", "--target", str(bad), "--prompts",
                         str(prompts), "--out", str(tmp_path / "out")],
        }[command]
        capsys.readouterr()
        assert main(argv) == 1
        assert "error: header declares" in capsys.readouterr().err

    def test_missing_input_returns_1(self, tmp_path, capsys):
        rc = main(["quantize", "--model", str(tmp_path / "absent.bin"),
                   "--out", str(tmp_path / "o.bin")])
        assert rc == 1


class TestGenerate:
    def test_greedy_only(self, models, tmp_path, capsys):
        target, _, prompts = models
        out_dir = tmp_path / "greedy"
        rc = main(["generate", "--target", str(target), "--prompts",
                   str(prompts), "--max-new", "8", "--out", str(out_dir)])
        assert rc == 0
        tokens_lines = capsys.readouterr().out.strip().splitlines()[-3:]
        assert all(len(line.split()) == 8 for line in tokens_lines)
        assert (out_dir / "summary.json").exists()

    def test_speculative_outputs(self, models, tmp_path, capsys):
        target, draft, prompts = models
        out_dir = tmp_path / "spec"
        rc = main([
            "generate", "--target", str(target), "--draft", str(draft),
            "--spec-len", "4", "--threshold", "0.0",
            "--prompts", str(prompts), "--max-new", "12",
            "--out", str(out_dir),
        ])
        assert rc == 0
        summary = json.loads((out_dir / "summary.json").read_text())
        assert "geomean_speedup" in summary and "1" in summary["per_level_alpha"]
        rounds = (out_dir / "rounds.csv").read_text().splitlines()
        assert rounds[0] == "prompt,level,proposed,accepted,draft_ms,verify_ms"
        # Every prompt's rounds, in prompt order.
        prompt_col = [int(row.split(",")[0]) for row in rounds[1:]]
        assert prompt_col == sorted(prompt_col) and set(prompt_col) == {0, 1, 2}
        acc = (out_dir / "acceptance.csv").read_text().splitlines()
        assert acc[0] == "prompt,level,alpha"
        assert len(acc) == 4  # 3 prompts x 1 draft level

    def test_summary_counts_forwards(self, models, tmp_path, capsys):
        target, draft, prompts = models
        out_dir = tmp_path / "spec"
        assert main(["generate", "--target", str(target), "--draft", str(draft),
                     "--prompts", str(prompts), "--max-new", "12",
                     "--out", str(out_dir)]) == 0
        summary = json.loads((out_dir / "summary.json").read_text())
        forwards = summary["per_level_forwards"]
        fed = summary["per_level_tokens_fed"]
        assert set(forwards) == set(fed) == {"0", "1"}
        # Rejected proposals are rolled back from the shared cache.
        rolled = summary["per_level_rolled_back"]
        assert set(rolled) == {"0", "1"} and rolled["0"] > 0
        # The cast shares the target's cache, so it feeds only the token
        # it drafts from.
        assert fed["1"] == forwards["1"] > 0
        # The target feeds whole prompts and verifies several tokens per
        # forward.
        assert fed["0"] > forwards["0"] > 0
        # Draft counts agree with the rounds that drafted something.
        rows = [line.split(",") for line in
                (out_dir / "rounds.csv").read_text().splitlines()[1:]]
        drafted = [(int(p), int(a)) for _, lv, p, a, *_ in rows
                   if lv == "0" and int(p)]
        assert drafted
        assert summary["per_level_wasted_draft_tokens"] == {
            "1": sum(p - a for p, a in drafted)}
        assert summary["per_level_mean_proposal"] == {
            "1": pytest.approx(sum(p for p, _ in drafted) / len(drafted))}

    def test_summary_checksums(self, tmp_path, capsys):
        target, draft = tmp_path / "t.bin", tmp_path / "d.bin"
        assert main(["model-init", "--seed", "5", "--d-model", "32",
                     "--n-heads", "2", "--out", str(target)]) == 0
        printed = re.search(r"checksum=([0-9a-f]+)",
                            capsys.readouterr().out).group(1)
        assert main(["quantize", "--model", str(target),
                     "--out", str(draft)]) == 0
        prompts = tmp_path / "prompts.txt"
        prompts.write_text("1 2 3\n")
        out_dir = tmp_path / "spec"
        assert main(["generate", "--target", str(target), "--draft", str(draft),
                     "--prompts", str(prompts), "--max-new", "4",
                     "--out", str(out_dir)]) == 0
        summary = json.loads((out_dir / "summary.json").read_text())
        cast = direct_cast_mxfp4(artifacts.load_model(target))
        assert summary["per_level_checksum"] == {
            "0": printed, "1": model_checksum(cast)}

    def test_lossless_flag_output_matches_greedy(self, models, tmp_path, capsys):
        target, draft, prompts = models
        rc1 = main(["generate", "--target", str(target), "--prompts",
                    str(prompts), "--max-new", "10",
                    "--out", str(tmp_path / "g")])
        greedy_out = capsys.readouterr().out.strip().splitlines()
        rc2 = main(["generate", "--target", str(target), "--draft", str(draft),
                    "--threshold", "0.4",
                    "--prompts", str(prompts), "--max-new", "10",
                    "--out", str(tmp_path / "s")])
        spec_out = capsys.readouterr().out.strip().splitlines()
        assert rc1 == rc2 == 0
        assert greedy_out[-3:] == spec_out[-3:]

    def test_lossless_mismatch_is_an_error(self, models, tmp_path, capsys,
                                           monkeypatch):
        target, draft, prompts = models

        def wrong(*args, **kwargs):
            return specdec.GenerationResult(tokens=[0], seconds=1.0)

        monkeypatch.setattr(specdec, "speculative_generate", wrong)
        rc = main(["generate", "--target", str(target), "--draft", str(draft),
                   "--prompts", str(prompts), "--max-new", "4",
                   "--out", str(tmp_path / "o")])
        assert rc == 1
        assert "error: losslessness violated" in capsys.readouterr().err

    def test_byte_tokens_past_vocab_is_an_error(self, tmp_path, capsys):
        model = tmp_path / "v64.bin"
        assert main(["model-init", "--vocab-size", "64", "--d-model", "32",
                     "--n-heads", "2", "--out", str(model)]) == 0
        prompts = tmp_path / "text.txt"
        prompts.write_text("hello\n")  # byte ids 101..111
        rc = main(["generate", "--target", str(model), "--byte-tokens",
                   "--prompts", str(prompts), "--max-new", "4",
                   "--out", str(tmp_path / "o")])
        assert rc == 1
        assert "error: token id 104 outside [0, 64)" in capsys.readouterr().err

    def test_mxfp4_embedding_is_an_error(self, models, tmp_path, capsys):
        # Only linears may be MXFP4: an MXFP4 tok_emb of the right shape is a
        # bad file, not a traceback in the forward.
        target, _, prompts = models
        data = target.read_bytes()
        at = data.index(b"tok_emb") + len(b"tok_emb")
        old, new = io.BytesIO(data[at:]), io.BytesIO()
        artifacts.save_tensor(new, quantize_direct_cast(artifacts.load_tensor(old)))
        bad = tmp_path / "bad.bin"
        bad.write_bytes(data[:at] + new.getvalue() + data[at + old.tell():])
        capsys.readouterr()
        rc = main(["generate", "--target", str(bad), "--prompts", str(prompts),
                   "--out", str(tmp_path / "o")])
        assert rc == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: tok_emb: expected float")
        assert "Traceback" not in err

    def test_no_tokens_no_speedup(self, models, tmp_path, capsys):
        target, draft, prompts = models
        rc = main(["generate", "--target", str(target), "--draft", str(draft),
                   "--prompts", str(prompts), "--max-new", "0",
                   "--out", str(tmp_path / "o")])
        assert rc == 0
        assert "geomean speedup n/a" in capsys.readouterr().err
        summary = json.loads((tmp_path / "o" / "summary.json").read_text())
        assert summary["geomean_speedup"] is None
        # No token, no rate.
        assert summary["greedy_tok_s"] is None and summary["spec_tok_s"] is None
        assert summary["per_prompt_truncated"] == [False] * 3

    def test_rates_and_truncation(self, models, tmp_path, capsys):
        target, draft, prompts = models
        # The third prompt fills the 128-token context but for 2 positions,
        # so only 3 of its 8 tokens fit.
        prompts.write_text("1 2 3\n9\n" + " ".join(["40"] * 126) + "\n")
        out_dir = tmp_path / "o"
        assert main(["generate", "--target", str(target), "--draft", str(draft),
                     "--prompts", str(prompts), "--max-new", "8",
                     "--out", str(out_dir)]) == 0
        tokens = [line.split() for line in
                  capsys.readouterr().out.strip().splitlines()]
        assert [len(t) for t in tokens] == [8, 8, 3]
        summary = json.loads((out_dir / "summary.json").read_text())
        assert summary["per_prompt_truncated"] == [False, False, True]
        assert summary["total_tokens"] == 19
        for kind in ("greedy", "spec"):
            assert summary[f"{kind}_tok_s"] == pytest.approx(
                19 / summary[f"{kind}_seconds"])

    @pytest.mark.parametrize("flags,message", [
        (["--max-new", "-3"], "error: max_new must be >= 0, got -3"),
        (["--eos", "999"], "error: eos token id 999 outside [0, 256)"),
        (["--eos", "-1"], "error: eos token id -1 outside [0, 256)"),
        (["--spec-len", "4"] * 3, "error: 3 --spec-len values for 2 levels"),
        (["--threshold", "0"] * 2, "error: 2 --threshold values for 2 levels: "
                                   "one per --draft, none for the target"),
    ])
    def test_bad_request_is_an_error(self, models, tmp_path, capsys, flags,
                                     message):
        target, draft, prompts = models
        capsys.readouterr()
        rc = main(["generate", "--target", str(target), "--draft", str(draft),
                   "--prompts", str(prompts), "--out", str(tmp_path / "o")]
                  + flags)
        assert rc == 1
        out, err = capsys.readouterr()
        assert message in err and out == ""

    def test_flags_set_each_draft_in_order(self, models, tmp_path, capsys,
                                           monkeypatch):
        # The target drafts nothing, so the first value is the first
        # draft's; a draft past the values given keeps the defaults.
        target, draft, prompts = models
        trees = []
        run = specdec.run_benchmark
        monkeypatch.setattr(specdec, "run_benchmark",
                            lambda tree, *a, **kw: trees.append(tree) or
                            run(tree, *a, **kw))
        out_dir = tmp_path / "o"
        assert main(["generate", "--target", str(target), "--draft", str(draft),
                     "--draft", str(draft), "--spec-len", "3",
                     "--threshold", "0", "--prompts", str(prompts),
                     "--max-new", "12", "--out", str(out_dir)]) == 0
        [tree] = trees
        assert [(lv.spec_len, lv.threshold) for lv in tree.levels[1:]] == [
            (3, 0.0), (specdec.DEFAULT_SPEC_LEN, specdec.DEFAULT_THRESHOLD)]
        summary = json.loads((out_dir / "summary.json").read_text())
        assert 1 < summary["per_level_mean_proposal"]["1"] <= 3

    def test_empty_prompts_error(self, models, tmp_path, capsys):
        target, _, _ = models
        empty = tmp_path / "empty.txt"
        empty.write_text("\n")
        rc = main(["generate", "--target", str(target), "--prompts",
                   str(empty), "--out", str(tmp_path / "o")])
        assert rc == 1


class TestGemmBench:
    def test_csv_written(self, tmp_path, capsys):
        out = tmp_path / "bench.csv"
        rc = main(["gemm-bench", "--m", "64", "--k", "64", "--n", "1", "2",
                   "--paths", "int8", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "path,M,N,K,bytes,seconds,gbps"
        assert len(lines) == 3

    def test_latescale_path(self, tmp_path, capsys):
        out = tmp_path / "bench.csv"
        rc = main(["gemm-bench", "--m", "64", "--k", "64", "--n", "1",
                   "--paths", "latescale_f32", "--out", str(out)])
        assert rc == 0
        assert out.read_text().splitlines()[1].startswith("latescale_f32,64,1,64,")

    def test_bad_shape(self, tmp_path, capsys):
        rc = main(["gemm-bench", "--m", "8", "--k", "33",
                   "--out", str(tmp_path / "b.csv")])
        assert rc == 1


class TestSurfaceAndRoofline:
    def test_surface_single(self, tmp_path, capsys):
        out = tmp_path / "surface.csv"
        rc = main(["speedup-surface", "--grid", "11", "--s", "4", "20",
                   "--out", str(out)])
        assert rc == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "alpha,S,speedup"
        assert len(lines) == 1 + 11 * 2

    def test_surface_multi(self, tmp_path, capsys):
        out = tmp_path / "multi.csv"
        rc = main(["speedup-surface", "--mode", "multi", "--grid", "5",
                   "--out", str(out)])
        assert rc == 0
        assert out.read_text().startswith("alpha_inner,alpha_outer,speedup")

    def test_roofline_table(self, tmp_path, capsys):
        out = tmp_path / "roof.csv"
        rc = main(["roofline", "--m", "512", "--k", "512", "--n", "1", "8",
                   "--out", str(out)])
        assert rc == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "format,M,N,K,intensity,attainable_flops"
        assert len(lines) == 1 + 2 * 3  # two N values x three formats


    # Every float flag, the ones a mode does not read included.
    @pytest.mark.parametrize("argv, flag", [
        (["speedup-surface", "--s", "4", "nan"], "--s"),
        (["speedup-surface", "--spec-len", "nan"], "--spec-len"),
        (["speedup-surface", "--s1", "nan"], "--s1"),
        (["speedup-surface", "--s2", "nan"], "--s2"),
        (["speedup-surface", "--mode", "multi", "--s1", "nan"], "--s1"),
        (["speedup-surface", "--mode", "multi", "--s2", "nan"], "--s2"),
        (["speedup-surface", "--mode", "multi", "--s", "nan"], "--s"),
        (["roofline", "--bandwidth", "nan"], "--bandwidth"),
        (["roofline", "--compute", "nan"], "--compute"),
    ])
    def test_nan_flag_is_an_error(self, argv, flag, tmp_path, capsys):
        out = tmp_path / "out.csv"
        assert main(argv + ["--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {flag} must be a number, got nan\n"
        assert not out.exists()

    def test_infinite_s_is_a_free_draft(self, tmp_path, capsys):
        out = tmp_path / "surface.csv"
        assert main(["speedup-surface", "--grid", "2", "--s", "inf",
                     "--spec-len", "4", "--out", str(out)]) == 0
        assert out.read_text().splitlines()[1:] == [
            "0.000000,inf,1.000000000", "1.000000,inf,5.000000000"]


class TestParserBuiltOnce:
    GENERATE = ["generate", "--target", "t.bin", "--prompts", "p.txt",
                "--out", "o"]

    def test_one_parser_per_process(self):
        assert build_parser() is build_parser()

    def test_append_defaults_do_not_leak(self, models, tmp_path, capsys):
        target, draft, prompts = models
        parse = build_parser().parse_args
        a = parse(self.GENERATE + ["--draft", "d1.bin", "--draft", "d2.bin",
                                   "--spec-len", "4", "--threshold", "0.5"])
        b = parse(self.GENERATE + ["--spec-len", "2"])
        c = parse(self.GENERATE)
        assert (a.draft, a.spec_len, a.threshold) == (
            ["d1.bin", "d2.bin"], [4], [0.5])
        assert (b.draft, b.spec_len, b.threshold) == ([], [2], [])
        assert (c.draft, c.spec_len, c.threshold) == ([], [], [])
        # The same through main: a two-level run, then a greedy one.
        levels = []
        for flags in (["--draft", str(draft), "--spec-len", "3",
                       "--threshold", "0.2"], []):
            out_dir = tmp_path / f"run{len(levels)}"
            assert main(["generate", "--target", str(target), "--prompts",
                         str(prompts), "--max-new", "4", "--out", str(out_dir)]
                        + flags) == 0
            summary = json.loads((out_dir / "summary.json").read_text())
            levels.append(sorted(summary["per_level_forwards"]))
        assert levels == [["0", "1"], ["0"]]

    @pytest.mark.parametrize("argv,code,message", [
        (["generate", "--target", "t.bin", "--out", "o"], 2,
         "the following arguments are required: --prompts"),
        (["no-such-command"], 2, "invalid choice: 'no-such-command'"),
        (["roofline", "--out", "x.csv", "--n", "one"], 2,
         "argument --n: invalid int value: 'one'"),
    ])
    def test_error_exits_repeat(self, capsys, argv, code, message):
        for _ in range(2):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == code
            assert message in capsys.readouterr().err

    def test_subcommand_looked_up_at_call_time(self, monkeypatch, tmp_path):
        seen = []
        monkeypatch.setattr(cli, "cmd_roofline", lambda args: seen.append(
            args.out) or 7)
        assert main(["roofline", "--out", str(tmp_path / "r.csv")]) == 7
        assert seen == [str(tmp_path / "r.csv")]
