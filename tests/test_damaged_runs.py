"""Damaged run directories: every reader exits 0 or 1, never with a traceback.

One quick-preset run directory holds every artifact kind that a command
reads.  Each case damages one file of a copy of it and runs every command
that reads that file.  A command may exit 0, when the damage hits data it
does not use, or 1 with a JSON error record on stderr; an exception that
escapes ``main`` is the traceback a user would see.  Truncation, emptying,
binary bytes and the row-level damage run on every file.  The key edits
delete or retype each field the reader's schema table declares (each key of
the document, for the model files, whose format the codec owns); they are
sampled with a fixed seed, a few per file, so the whole test stays small.
"""

import json
import random
import shutil

import pytest

from rwtkit.cli import _ARTIFACTS, MODEL_NAMES, main

#: The commands that read each file, as argument lists without ``--out``.
READERS = {
    "profiles.jsonl": (["evaluate"], ["explain", "--model", "cart"], ["kan-run"], ["report"]),
    "split.json": (["evaluate"], ["explain", "--model", "cart"], ["kan-run"], ["report"]),
    "scaler.json": (["evaluate"], ["explain", "--model", "cart"], ["kan-run"]),
    "ingest_notes.json": (["report"],),
    "metrics.json": (["report"],),
    "shap_global.json": (["report"],),
    "r2_curve.csv": (["report"],),
    **{f"model_{m}.json": (["evaluate"], ["explain", "--model", m]) for m in MODEL_NAMES},
}

#: Explain one row on a small background, inline; the kan-run of the base.
SMALL = {
    "explain": ["--shap-instances", "1", "--shap-background", "8"],
    "kan-run": ["--kan-ordering", "1", "--kan-seeds", "0", "--kan-steps", "5", "--kan-grid", "4"],
}

#: Values each top-level JSON key is set to; deleting the key is one more case.
RETYPED = (None, "x", [], {}, -1, "nan")

#: Key edits sampled per JSON file; every other mutation runs on every file.
KEY_EDITS = 3


def _json_edits(name: str, text: str, jsonl: bool) -> dict:
    """Each declared top-level key of the (first) document deleted or retyped."""
    lines = text.splitlines(keepends=True)
    doc = json.loads(lines[0] if jsonl else text)
    edits = {}
    for key in sorted(_ARTIFACTS[name].fields or doc):
        for value in ("deleted",) + RETYPED:
            edited = {k: v for k, v in doc.items() if k != key}
            if value != "deleted":
                edited[key] = value
            body = json.dumps(edited)
            edits[f"{key}={value!r}"] = body + "\n" + "".join(lines[1:]) if jsonl else body
    return edits


def _mutations(name: str, data: bytes) -> dict:
    """Every mutation of one file: its name -> the damaged bytes."""
    text = data.decode()
    out = {
        "truncated": data[: len(data) // 2 + 1],
        "emptied": b"",
        "binary": b"\x89\xff\x00\xfe binary \x80\x81\n",
    }
    if name.endswith(".csv"):
        header = text.splitlines(keepends=True)[0]
        width = header.count(",") + 1
        edits = {
            "header-only": header,
            "short-row": text + ",".join(["1"] * (width - 1)) + "\n",
            "nan-row": text + ",".join(["nan"] * width) + "\n",
        }
    else:
        edits = _json_edits(name, text, jsonl=name.endswith(".jsonl"))
        if name.endswith(".jsonl"):
            first = text.splitlines(keepends=True)[0]
            edits["first-line-only"] = first
            edits["short-row"] = text + "{}\n"
            edits["nan-row"] = text + first.replace('"covariates": {', '"covariates": '
                                                    '{"air_temp": "nan", ', 1)
    out.update({label: body.encode() for label, body in edits.items()})
    return out


@pytest.fixture(scope="module")
def base_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("damaged") / "run"
    base = ["--out", str(out)]
    assert main(["ingest", "--synthetic", "--synth-profiles", "12", "--synth-samples", "4",
                 "--synth-seed", "3"] + base) == 0
    for model in MODEL_NAMES:
        assert main(["train", "--model", model, "--preset", "quick"] + base) == 0
    assert main(["evaluate"] + base) == 0
    assert main(["explain", "--model", "cart"] + SMALL["explain"] + base) == 0
    assert main(["kan-run"] + SMALL["kan-run"] + base) == 0
    assert sorted(p.name for p in out.iterdir() if p.name in READERS) == sorted(READERS)
    return out


@pytest.mark.parametrize("name", sorted(READERS))
def test_damaged_file_gives_a_record_not_a_traceback(base_dir, tmp_path, capsys, name):
    mutations = _mutations(name, (base_dir / name).read_bytes())
    keyed = sorted(label for label in mutations if "=" in label)
    sampled = random.Random(f"damaged:{name}").sample(keyed, min(KEY_EDITS, len(keyed)))
    for i, kind in enumerate([k for k in mutations if "=" not in k] + sampled):
        out = tmp_path / str(i)
        shutil.copytree(base_dir, out)
        (out / name).write_bytes(mutations[kind])
        for argv in READERS[name]:
            argv = argv + SMALL.get(argv[0], []) + ["--out", str(out)]
            capsys.readouterr()
            try:
                code = main(argv)
            except Exception as exc:  # escaping main is a traceback for the user
                pytest.fail(f"{kind} {name}: {argv[0]} raised {type(exc).__name__}: {exc}")
            err = capsys.readouterr().err
            assert code in (0, 1), (kind, name, argv, code, err)
            if code == 1:
                record = json.loads(err.strip().splitlines()[-1])
                assert set(record) == {"error", "message"}, (kind, name, argv, err)
