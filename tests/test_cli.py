"""The command line interface, driven in-process through main(), and as a
subprocess where the process's own stdout matters."""

import io
import json
import os
import subprocess
import sys
import tracemalloc

import pytest

import pikaparse
from pikaparse.cli import main, tree_lines, tree_to_json, tree_to_sexpr

from helpers import ARITH_LABELED, ASSIGN, compile_leftrec, parse_tree


# === parse command ===

def test_parse_inline_text_tree(capsys):
    rc = main(["parse", "-t", "1+2*3"])
    out = capsys.readouterr().out
    assert rc == 0
    lines = out.splitlines()
    assert lines[0].startswith("E0 [0,5)")
    assert any('"+"' in ln for ln in lines)
    assert any("E1 " in ln for ln in lines)


def test_parse_failure_reports_spans(capsys):
    rc = main(["parse", "-t", "1+/2"])
    out = capsys.readouterr().out
    assert rc == 1
    assert "does not fully match" in out
    assert "[1,3)" in out and '"+/"' in out
    assert "matched before/after/between:" in out


def test_empty_input_the_grammar_cannot_match_is_reported_as_empty(capsys):
    rc = main(["parse", "-t", ""])
    out = capsys.readouterr().out
    assert rc == 1
    assert "the input is empty" in out
    assert "do not join up" not in out


def test_parse_json_format(capsys):
    rc = main(["parse", "-t", "a+b", "--format", "json"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["name"] == "E0"
    assert (doc["start"], doc["end"]) == (0, 3)
    assert doc["children"]


def test_parse_sexpr_format(capsys):
    rc = main(["parse", "-t", "a", "-f", "sexpr"])
    assert rc == 0
    out = capsys.readouterr().out.strip()
    assert out.startswith("(") and out.endswith(")")
    assert '"a"' in out


def test_parse_grammar_file_and_start_rule(tmp_path, capsys):
    gpath = tmp_path / "assign.peg"
    gpath.write_text(ASSIGN)
    rc = main(["parse", "-g", str(gpath), "-s", "Assign", "-t", "x=1;"])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.splitlines()[0].startswith("Assign [0,4)")


def test_start_rule_applies_to_the_built_in_grammar(capsys):
    # -s names a rule of the built-in grammar as it does one of a file's.
    assert main(["parse", "-s", "Nope", "-t", "1+2"]) == 2
    assert "start rule 'Nope' is not defined" in capsys.readouterr().err
    # E3 matches only the leading '1'.
    assert main(["parse", "-s", "E3", "-t", "1+2"]) == 1
    assert "does not fully match rule 'E3'" in capsys.readouterr().out


def test_parse_ast_output(tmp_path, capsys):
    gpath = tmp_path / "assign.peg"
    gpath.write_text(ASSIGN)
    rc = main(["parse", "-g", str(gpath), "-t", "ab=42;", "--ast", "-f", "sexpr"])
    out = capsys.readouterr().out
    assert rc == 0
    assert '(lhs "ab")' in out and '(rhs "42")' in out


def test_parse_ast_tree_format(tmp_path, capsys):
    # The indented renderer must cope with AST nodes, which carry labels
    # but no clause names.
    gpath = tmp_path / "assign.peg"
    gpath.write_text(ASSIGN)
    rc = main(["parse", "-g", str(gpath), "-t", "ab=42;", "--ast"])
    out = capsys.readouterr().out
    assert rc == 0
    lines = out.splitlines()
    assert lines[0].startswith("ast [0,6)")
    assert '  lhs [0,2) "ab"' in lines
    assert '  rhs [3,5) "42"' in lines


def test_parse_ast_without_labels(capsys):
    rc = main(["parse", "-t", "a+b", "--ast"])
    assert rc == 0
    assert "(no labeled nodes)" in capsys.readouterr().out


def test_parse_ast_without_labels_as_json_is_null(capsys):
    # JSON output stays loadable when nothing is labeled.
    rc = main(["parse", "-t", "a+b", "--ast", "-f", "json"])
    assert rc == 0
    assert capsys.readouterr().out == "null\n"


def test_parse_file_input(tmp_path, capsys):
    ipath = tmp_path / "input.txt"
    ipath.write_text("7*8\n")
    rc = main(["parse", str(ipath)])
    assert rc == 0
    assert "[0,3)" in capsys.readouterr().out


def test_parse_stdin(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO("5+5\n"))
    rc = main(["parse"])
    assert rc == 0
    assert "[0,3)" in capsys.readouterr().out


def test_keep_trailing_newline_changes_result(tmp_path, capsys):
    ipath = tmp_path / "input.txt"
    ipath.write_text("9\n")
    assert main(["parse", str(ipath)]) == 0
    capsys.readouterr()
    assert main(["parse", str(ipath), "--keep-trailing-newline"]) == 1


def test_recover_rule_selection(tmp_path, capsys):
    gpath = tmp_path / "assign.peg"
    gpath.write_text(ASSIGN)
    rc = main(["parse", "-g", str(gpath), "-t", "a=1;##b=2;", "--recover", "Assign"])
    out = capsys.readouterr().out
    assert rc == 1
    assert "[4,6)" in out and '"##"' in out
    assert out.count("Assign [") == 2


# === error paths ===

def test_missing_grammar_file_is_usage_error(capsys):
    rc = main(["parse", "-g", "/nonexistent/g.peg", "-t", "a"])
    assert rc == 2
    assert "error" in capsys.readouterr().err


def test_deeply_nested_grammar_is_usage_error(tmp_path, capsys):
    gpath = tmp_path / "deep.peg"
    gpath.write_text("A <- " + "(" * 1000 + "'a'" + ")" * 1000 + ";")
    rc = main(["parse", "-g", str(gpath), "-t", "a"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "grammar error: line 1, column 106: nesting deeper than 100" in err


def test_bad_grammar_is_usage_error(tmp_path, capsys):
    gpath = tmp_path / "bad.peg"
    gpath.write_text("A <- 'a'")  # missing semicolon
    rc = main(["parse", "-g", str(gpath), "-t", "a"])
    assert rc == 2
    assert "grammar error" in capsys.readouterr().err


def test_grammar_file_may_start_with_a_byte_order_mark(tmp_path, capsys):
    gpath = tmp_path / "bom.peg"
    gpath.write_bytes(b"\xef\xbb\xbfS <- [a-z]+;")
    assert main(["parse", "-g", str(gpath), "-t", "abc"]) == 0
    assert capsys.readouterr().out.startswith("S [0,3)")
    # An input file's mark is input: its offsets are the user's.
    ipath = tmp_path / "input.txt"
    ipath.write_bytes(b"\xef\xbb\xbfabc")
    assert main(["parse", "-g", str(gpath), str(ipath)]) == 1
    assert '[0,1) "\\ufeff"' in capsys.readouterr().out


def test_internal_error_has_its_own_exit_code(monkeypatch, capsys):
    # A crash must not look like "input did not parse" (1) or bad usage (2).
    def boom(grammar, text):
        raise RuntimeError("engine fault")

    monkeypatch.setattr("pikaparse.cli.parse", boom)
    rc = main(["parse", "-t", "1+2"])
    assert rc == 3
    assert "internal error: RuntimeError: engine fault" in capsys.readouterr().err


@pytest.mark.parametrize("error", [RuntimeError, ValueError])
def test_a_failure_while_rendering_is_an_internal_error(monkeypatch, capsys, error):
    # The tree is rendered as it is printed, after the parse: a fault
    # there is still the tool's, whatever its type.
    def boom(node):
        raise error("renderer fault")

    monkeypatch.setattr("pikaparse.cli._name_of", boom)
    assert main(["parse", "-t", "1+2"]) == 3
    assert "internal error: %s: renderer fault" % error.__name__ in capsys.readouterr().err


class CountingStdout:
    """A stdout that keeps only the number of bytes written to it."""

    def __init__(self):
        self.bytes = 0

    def write(self, text):
        self.bytes += len(text.encode())
        return len(text)

    def flush(self):
        pass


def test_a_deep_tree_is_printed_as_it_is_rendered(tmp_path, monkeypatch):
    # The indented rendering of a prefix run d deep is about d^2 chars, far
    # more than the tree: main prints each line as the walk reaches its
    # node, so the memory it holds at once is the table's and the tree's.
    grammar = tmp_path / "expr.peg"
    grammar.write_text(ARITH_LABELED)
    sink = CountingStdout()
    monkeypatch.setattr(sys, "stdout", sink)
    tracemalloc.start()
    try:
        rc = main(["parse", "-g", str(grammar), "--text=" + "-" * 1000 + "a"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 0
    assert sink.bytes > 10_000_000
    assert peak < sink.bytes / 4


@pytest.mark.parametrize(
    "text, code, first_line",
    [
        # Hundreds of kilobytes or more either way, more than a pipe holds.
        ("+".join(["(a*b)"] * 300), 0, b"E0 [0,1799)\n"),
        ("a#" * 20000, 1, b"input does not fully match rule 'E'\n"),
    ],
    ids=["parsed", "not-parsed"],
)
def test_closed_pipe_keeps_the_parse_exit_code(text, code, first_line):
    # `pikaparse parse ... | head -1`: the reader closes the pipe after one
    # line, which is no error of the tool's.
    src = os.path.dirname(os.path.dirname(pikaparse.__file__))
    proc = subprocess.Popen(
        [sys.executable, "-m", "pikaparse.cli", "parse", "-t", text],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert proc.stdout.readline() == first_line
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == code
    assert err == b""


@pytest.mark.parametrize(
    "data, code", [(b"ab;\r\n", 0), (b"ab;\xff\n", 2)], ids=["crlf", "invalid-utf-8"]
)
def test_stdin_decodes_as_a_file_does(tmp_path, data, code):
    # The same bytes give the same result from a file and piped to stdin:
    # universal newlines, and strict UTF-8.
    grammar = tmp_path / "g.peg"
    grammar.write_text("S <- [a-z]+ ';';")
    ipath = tmp_path / "input.txt"
    ipath.write_bytes(data)
    src = os.path.dirname(os.path.dirname(pikaparse.__file__))
    cmd = [sys.executable, "-m", "pikaparse.cli", "parse", "-g", str(grammar)]
    env = dict(os.environ, PYTHONPATH=src)
    from_file = subprocess.run(cmd + [str(ipath)], capture_output=True, env=env, timeout=120)
    piped = subprocess.run(cmd, input=data, capture_output=True, env=env, timeout=120)
    assert from_file.returncode == piped.returncode == code
    assert (from_file.stdout, from_file.stderr) == (piped.stdout, piped.stderr)


def test_unknown_format_rejected():
    with pytest.raises(SystemExit):
        main(["parse", "-t", "a", "-f", "yaml"])


def test_missing_subcommand_rejected():
    with pytest.raises(SystemExit):
        main([])


def test_parse_is_the_only_subcommand(capsys):
    # perfbench/run.py is the benchmark, so the CLI has no timing path; it
    # has no repetition-mode option either, since both modes print the
    # same tree.
    for argv in (["--help"], ["parse", "--help"]):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 0
    out = capsys.readouterr().out
    assert "{parse}" in out
    assert "repetition" not in out
    for argv in (["gen"], ["bench"]):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2, argv


# === serializers on deep trees ===

def test_serializers_handle_deep_left_nesting():
    import sys

    g = compile_leftrec()
    text = "a" + "+b" * 2000
    root = parse_tree(g, text)
    assert len(list(tree_lines(root))) > 4000
    emitted = tree_to_json(root)
    # The serializer is iterative; the stdlib decoder is not, so give the
    # round-trip check a deeper interpreter stack.
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(40000)
    try:
        doc = json.loads(emitted)
    finally:
        sys.setrecursionlimit(old)
    assert doc["end"] == len(text)
    s = tree_to_sexpr(root)
    assert s.count("(") == s.count(")")


def test_json_escapes_special_characters(tmp_path, capsys):
    gpath = tmp_path / "g.peg"
    gpath.write_text("""S <- '"' [a-z] '"';""")
    rc = main(["parse", "-g", str(gpath), "-t", '"x"', "-f", "json"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["children"][0]["text"] == '"'
