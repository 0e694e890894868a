import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from zimrev.cli import main

CORPUS = Path(__file__).parent / "binary_patterns.jsonl"

# a square whose half is 17 letters, one past the library's default cap
HALF_17 = "123456789abcdefgh"
SYMBOLS_17 = " ".join("abcdefghijklmnopq")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    return code, json.loads(out) if out.strip() else None, err


class TestDecideCommand:
    def test_unavoidable(self, capsys):
        code, data, _ = run_json(capsys, "decide", "x y x~")
        assert code == 0
        assert data["status"] == "unavoidable"
        assert data["schema_version"] == "1"
        assert data["certificate"]["kind"] == "zimin_division"

    def test_avoidable(self, capsys):
        code, data, _ = run_json(capsys, "decide", "x x~")
        assert code == 0
        assert data["status"] == "avoidable"

    def test_parse_error_exit_2(self, capsys):
        code, out, err = run_cli(capsys, "decide", "x .. y")
        assert code == 2
        assert "position" in err

    def test_byte_identical_output(self, capsys):
        _, out1, _ = run_cli(capsys, "decide", "x y x~")
        _, out2, _ = run_cli(capsys, "decide", "x y x~")
        assert out1 == out2

    def test_evidence_on_lemma_verdict(self, capsys):
        code, data, _ = run_json(capsys, "decide", "--evidence", "y y z z w w x x~")
        assert code == 0
        assert data["status"] == "avoidable"
        assert data["certificate"]["name"] == "doubled"
        assert data["evidence"]["kind"] == "evidence_only"

    def test_step_budget_exceeded_is_unknown(self, capsys):
        code, data, _ = run_json(capsys, "--max-steps", "1", "decide", "x y x~")
        assert code == 3
        assert data["status"] == "unknown"
        assert "step budget" in data["reason"]


class TestDividesCommand:
    def test_worked_example(self, capsys):
        code, data, _ = run_json(capsys, "divides", "x y x . y~", "x y z x y z . z~ y~ z~")
        assert code == 0
        assert data["divides"] is True
        assert data["morphism"] == {"x": "x", "y": "y z"}

    def test_negative(self, capsys):
        code, data, _ = run_json(capsys, "divides", "x x", "x y x")
        assert code == 0
        assert data["divides"] is False
        assert data["morphism"] is None

    def test_step_budget_exceeded_is_indeterminate(self, capsys):
        code, out, err = run_cli(capsys, "--max-steps", "1", "divides", "x y x", "x y z x")
        assert code == 3
        assert out == ""
        assert err.startswith("indeterminate:")

    def test_sound_bound_by_default(self, capsys):
        psi = f"{SYMBOLS_17} {SYMBOLS_17}"
        code, data, _ = run_json(capsys, "divides", "x x", psi)
        assert code == 0
        assert data["morphism"] == {"x": SYMBOLS_17}
        _, data, _ = run_json(capsys, "--max-image-len", "16", "divides", "x x", psi)
        assert data["divides"] is False


class TestOccursCommand:
    def test_positive(self, capsys):
        code, data, _ = run_json(capsys, "occurs", "x x~", "abba")
        assert code == 0
        assert data["occurs"] is True

    def test_negative(self, capsys):
        code, data, _ = run_json(capsys, "occurs", "x x", "abc")
        assert code == 0
        assert data["occurs"] is False

    def test_sound_bound_by_default(self, capsys):
        code, data, _ = run_json(capsys, "occurs", "x x", HALF_17 * 2)
        assert code == 0
        assert data["morphism"] == {"x": HALF_17}
        _, data, _ = run_json(capsys, "occurs", "--max-image-len", "16", "x x", HALF_17 * 2)
        assert data["occurs"] is False


class TestFlattenCommand:
    def test_flatten(self, capsys):
        code, data, _ = run_json(capsys, "flatten", "x y~ x . y")
        assert code == 0
        assert data["flattened"] == "x y x . y"


class TestReduceCommand:
    def test_reducible(self, capsys):
        code, data, _ = run_json(capsys, "reduce", "x y x")
        assert code == 0
        assert data["reducible"] is True
        assert data["chain"][0]["deleted"] == ["x"]

    def test_irreducible(self, capsys):
        code, data, _ = run_json(capsys, "reduce", "x x")
        assert code == 0
        assert data["reducible"] is False

    def test_mirrored_rejected(self, capsys):
        code, _, err = run_cli(capsys, "reduce", "x x~")
        assert code == 2
        assert "mirror" in err

    def test_template_over_the_guard_rejected(self, capsys):
        # eleven variables: Z(0, 11) has length 2047; refused before the search
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "reduce", "a b c d e f g h i j k")
        assert time.perf_counter() - start < 1
        assert (code, out) == (2, "")
        assert "Z(0,11) has fragment length 2047, over the template guard" in err

    def test_decided_by_the_chain_without_a_division_search(self, capsys):
        # the division into Z(0, 6) runs past 10^7 steps; the chain takes ms,
        # so reduce must not search the division
        start = time.perf_counter()
        code, data, _ = run_json(capsys, "reduce", "v1 v0 v5 v6 v3 v6 . v4 v0 v4 v5")
        assert time.perf_counter() - start < 1
        assert code == 0
        assert data["status"] == "unavoidable"
        assert data["reducible"] is True


class TestZiminCommand:
    def test_stats(self, capsys):
        code, data, _ = run_json(capsys, "zimin", "2", "1")
        assert code == 0
        assert data["fragments"] == 16
        assert data["length"] == 5
        assert data["template"] == "X1 X2 y1 X1 X2"
        assert len(data["fragments_list"]) == 16

    def test_large_template_not_enumerated(self, capsys):
        code, data, _ = run_json(capsys, "zimin", "3", "2")
        assert code == 0
        assert data["fragments"] == 4096
        assert "fragments_list" not in data

    def test_template_over_the_guard_rejected(self, capsys):
        code, out, err = run_cli(capsys, "zimin", "2", "14")
        assert code == 2
        assert out == ""
        assert "over the template guard" in err

    def test_huge_n_rejected_without_computing_the_length(self, capsys):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "zimin", "0", "40000000000")
        assert time.perf_counter() - start < 1
        assert (code, out) == (2, "")
        assert "over the template guard" in err


class TestPowerfreeCommand:
    def test_square_free(self, capsys):
        code, data, _ = run_json(capsys, "powerfree", "3", "2", "50")
        assert code == 0
        assert len(data["word"]) == 50

    def test_fractional_exponent(self, capsys):
        code, data, _ = run_json(capsys, "powerfree", "4", "3/2", "60")
        assert code == 0
        assert data["alpha"] == "3/2"

    def test_impossible_exits_nonzero(self, capsys):
        code, data, _ = run_json(capsys, "powerfree", "2", "3/2", "10")
        assert code == 1
        assert data["mode"] == "tree_exhausted"


class TestCorpusCommand:
    def test_small_corpus(self, tmp_path, capsys):
        path = tmp_path / "mini.jsonl"
        entries = [
            {"formula": "x y x~", "expected_status": "unavoidable", "tags": []},
            {"formula": "x x~", "expected_status": "avoidable", "tags": []},
            {"formula": "x x", "expected_status": "avoidable"},
        ]
        path.write_text("\n".join(json.dumps(e) for e in entries))
        code, data, _ = run_json(capsys, "--jobs", "1", "corpus", str(path))
        assert code == 0
        assert data["entries"] == 3
        assert data["mismatches"] == []
        assert data["status_counts"] == {"unavoidable": 1, "avoidable": 2}

    def test_mismatch_exit_1(self, tmp_path, capsys):
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps({"formula": "x x", "expected_status": "unavoidable"}))
        code, data, _ = run_json(capsys, "--jobs", "1", "corpus", str(path))
        assert code == 1
        assert len(data["mismatches"]) == 1

    def test_malformed_line_reported(self, tmp_path, capsys):
        path = tmp_path / "broken.jsonl"
        path.write_text('{"formula": "x"}\nnot json at all\n')
        code, out, err = run_cli(capsys, "--jobs", "1", "corpus", str(path))
        assert code == 2
        assert "line 2" in err

    def test_non_string_formula_reported(self, tmp_path, capsys):
        path = tmp_path / "broken.jsonl"
        path.write_text('{"formula": "x"}\n{"formula": 5}\n')
        code, out, err = run_cli(capsys, "--jobs", "1", "corpus", str(path))
        assert code == 2
        assert "line 2" in err

    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "corpus", "/nonexistent/corpus.jsonl")
        assert code == 2

    def test_checked_in_corpus_sample(self, tmp_path, capsys):
        # a light regression run over a sample of the real corpus; the full
        # file runs in the acceptance suite
        lines = CORPUS.read_text().strip().splitlines()
        sample = lines[::20]
        path = tmp_path / "sample.jsonl"
        path.write_text("\n".join(sample))
        code, data, _ = run_json(capsys, "--jobs", "1", "corpus", str(path))
        assert code == 0
        assert data["mismatches"] == []

    def test_parallel_run_matches_serial(self, tmp_path, capsys):
        lines = CORPUS.read_text().strip().splitlines()
        path = tmp_path / "sample.jsonl"
        path.write_text("\n".join(lines[::40]))
        _, serial, _ = run_cli(capsys, "--jobs", "1", "corpus", str(path))
        _, parallel, _ = run_cli(capsys, "--jobs", "2", "corpus", str(path))
        assert serial == parallel


def test_import_leaves_the_process_pool_unloaded():
    # the pool, and multiprocessing with it, loads only for corpus --jobs > 1
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, zimrev.cli; print('concurrent.futures.process' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "False"


def test_usage_error_exit_2(capsys):
    assert main(["decide"]) == 2


def test_unknown_command_exit_2(capsys):
    assert main(["frobnicate"]) == 2


@pytest.mark.parametrize(
    "flag", [["--json"], ["--witness-len", "300"], ["--max-word-len", "50"], ["--alphabet-size", "5"]]
)
def test_removed_flags_rejected(capsys, flag):
    assert main(flag + ["decide", "x"]) == 2
    assert main(["decide", "x"] + flag) == 2
