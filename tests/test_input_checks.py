"""Property test of the input checks: one bad field in one line of a
windows, fits or series file ends every consumer in exit 0, with strict
JSON outputs, or in a data error naming that file, never in a
traceback, exit 3 or a warning."""

import contextlib
import io
import json
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from volgram.cli import main

_DELETED = object()
REPLACEMENTS = [float("nan"), 1e999, 0, -1, "x", True, [], [[1.0]], {}, None,
                _DELETED]

# options under which the unchanged files pass every stage
FIT = ["--models", "inverse-gamma", "--jobs", "1"]
KM = ["--n-bins", "2", "--tau-max", "3", "--tau-fit", "1:3", "--min-count", "1"]
MARKOV = ["--n-bins", "2", "--min-cell-count", "1", "--surrogates", "5"]
CONSUMERS = {
    "windows": {
        "fit": lambda src, out: ["fit", "--input", src, "--output",
                                 f"{out}/fits.jsonl", *FIT],
        "pipeline": lambda src, out: [
            "pipeline", "--input", src, "--outdir", out, "--plotdata", *FIT,
            "--markov-bins", "2", "--min-cell-count", "1", "--surrogates", "5",
            *KM],
    },
    "fits": {
        "summary": lambda src, out: ["summary", "--input", src, "--output",
                                     f"{out}/summary.json"],
        "km": lambda src, out: ["km", "--input", src, "--output",
                                f"{out}/km.json", *KM],
        "markov": lambda src, out: ["markov", "--input", src, "--output",
                                    f"{out}/markov.json", *MARKOV],
    },
    "series": {
        "km": lambda src, out: ["km", "--series", src, "--output",
                                f"{out}/km.json", *KM],
        "markov": lambda src, out: ["markov", "--series", src, "--output",
                                    f"{out}/markov.json", *MARKOV],
    },
}


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """The lines of a small valid file of each kind."""
    d = tmp_path_factory.mktemp("inputs")
    paths = {"windows": d / "windows.jsonl", "fits": d / "fits.jsonl",
             "series": d / "series.json"}
    assert main(["simulate", "market", "--output", str(paths["windows"]),
                 "--companies", "20", "--windows", "30", "--seed", "9"]) == 0
    assert main(CONSUMERS["windows"]["fit"](str(paths["windows"]), str(d))) == 0
    assert main(["simulate", "langevin", "--output", str(paths["series"]),
                 "--steps", "40", "--seed", "4"]) == 0
    series = json.loads(paths["series"].read_text())
    series["gaps"] = [10]
    paths["series"].write_text(json.dumps(series))
    for kind, consumers in CONSUMERS.items():
        for stage, argv in consumers.items():
            assert main(argv(str(paths[kind]), str(d / stage))) == 0
    return {kind: path.read_text().splitlines() for kind, path in paths.items()}


def _draw_path(data, value) -> tuple:
    """A key or index path into a JSON value: a field of it, or, as often
    as not, a path further into that field."""
    path = ()
    while True:
        key = data.draw(st.sampled_from(
            list(value) if isinstance(value, dict) else range(len(value))))
        path += (key,)
        value = value[key]
        if not (value and isinstance(value, (dict, list))
                and data.draw(st.booleans())):
            return path


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_one_bad_field_is_exit_0_or_a_data_error_naming_the_file(inputs, data):
    kind = data.draw(st.sampled_from(sorted(inputs)))
    lines = list(inputs[kind])
    i = data.draw(st.integers(0, len(lines) - 1))
    record = json.loads(lines[i])
    path = _draw_path(data, record)
    replacement = data.draw(st.sampled_from(REPLACEMENTS))
    parent = record
    for key in path[:-1]:
        parent = parent[key]
    if replacement is _DELETED:
        del parent[path[-1]]
    else:
        parent[path[-1]] = replacement
    lines[i] = json.dumps(record)

    with tempfile.TemporaryDirectory() as out:
        src = Path(out) / f"bad-{kind}.jsonl"
        src.write_text("\n".join(lines) + "\n")
        for stage, argv in CONSUMERS[kind].items():
            err = io.StringIO()
            with warnings.catch_warnings(record=True) as caught, \
                    contextlib.redirect_stderr(err):
                warnings.simplefilter("always")
                rc = main(argv(str(src), f"{out}/{stage}"))
            assert not caught, [str(w.message) for w in caught]
            assert rc in (0, 2), (stage, rc, err.getvalue())
            if rc == 2:
                assert f"data error: {src}" in err.getvalue(), err.getvalue()
            else:
                _assert_strict_json(Path(out) / stage)


def _reject_constant(name):
    raise ValueError(f"{name} is not strict JSON")


def _assert_strict_json(outdir: Path) -> None:
    """Every JSON and JSON-lines file a stage wrote parses without NaN or
    Infinity."""
    written = sorted(outdir.rglob("*.json")) + sorted(outdir.rglob("*.jsonl"))
    assert written, outdir
    for path in written:
        text = path.read_text(encoding="utf-8")
        docs = text.splitlines() if path.suffix == ".jsonl" else [text]
        for doc in docs:
            json.loads(doc, parse_constant=_reject_constant)
