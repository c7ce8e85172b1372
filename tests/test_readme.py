"""The README's contract tables and names against the code they describe."""

import re
from dataclasses import fields
from pathlib import Path

from gradfeat import cli, samplers

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def first_column(header: str) -> set:
    """The backticked names in the first column of the table whose header
    row starts with the cell ``header``."""
    lines = README.splitlines()
    start = next(
        i for i, line in enumerate(lines)
        if line.startswith("|") and line.split("|")[1].strip() == header
    )
    names = set()
    for line in lines[start + 2:]:
        if not line.startswith("|"):
            break
        (name,) = re.fullmatch(r"`([^`]+)`", line.split("|")[1].strip()).groups()
        names.add(name)
    return names


def test_sampler_kinds_match_kind_fields():
    assert first_column("kind") == set(samplers.KIND_FIELDS)


def test_statuses_match_cell_errors():
    assert first_column("`status`") == {"ok"} | set(cli._CELL_ERRORS.values())


def test_csv_schema_line():
    (schema,) = re.findall(r"Results CSV schema:\s*`([^`]+)`", README)
    assert schema == ",".join(cli.CSV_COLUMNS)


def test_every_config_field_named():
    missing = [f.name for f in fields(cli.ExperimentConfig) if f"`{f.name}`" not in README]
    assert not missing
