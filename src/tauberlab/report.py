"""Deterministic structured-text and CSV rendering of verification runs.

Reports use 12 significant digits so repeated runs with identical inputs are
byte-identical and diffable; the CSV carries full round-trip precision via
repr.  No timestamps, no environment-dependent content.
"""

from __future__ import annotations

from .asymptotics import CheckResult, EquivalenceReport

__all__ = ["fmt", "kv", "render_report", "render_samples_csv"]

SAMPLE_COLUMNS = ("psi", "s", "log_f", "prediction_leading", "prediction_corrected", "ratio")
# A [samples] row in one format: "%.12g" of a float is fmt's text, byte for byte.
_SAMPLE_ROW = " ".join(["%.12g"] * len(SAMPLE_COLUMNS))


def fmt(value: float) -> str:
    """12-significant-digit fixed formatting used throughout reports."""
    return f"{value:.12g}"


def kv(key: str, value) -> str:
    """One ``key = value`` line; floats take the 12-digit report format."""
    return f"{key} = {fmt(value) if isinstance(value, float) else value}"


def _sample_rows(report: EquivalenceReport) -> list[tuple[float, ...]]:
    """One row of SAMPLE_COLUMNS per sweep sample."""
    return [
        (s.psi, s.s, s.log_f, lead, corr, ratio)
        for s, lead, corr, ratio in zip(
            report.samples,
            report.predictions_leading,
            report.predictions_corrected,
            report.ratios,
        )
    ]


def _check_line(chk: CheckResult) -> str:
    if chk.limit is None:
        return kv(chk.name, f"{fmt(chk.value)} (informational)")
    verdict = "pass" if chk.passed else "FAIL"
    return kv(chk.name, f"{fmt(chk.value)} (limit {fmt(chk.limit)}) {verdict}")


def render_report(report: EquivalenceReport, title: str = "verify") -> str:
    """Structured-text document: input echo, derived values, samples, checks."""
    p, ms, fit = report.params, report.mid_sample, report.fit
    lines = [f"report = {title}", f"status = {'pass' if report.passed else 'fail'}"]

    def section(name: str, *body: str) -> None:
        lines.extend(("", f"[{name}]", *body))

    def pairs(name: str, items: list[tuple[str, object]]) -> None:
        section(name, *(kv(key, value) for key, value in items))

    pairs("input", [
        ("a", p.a), ("b", p.b), ("c", p.c), ("offset", p.offset),
        ("target", report.target_label), ("psi_min", report.grid.psi_values[0]),
        ("psi_max", report.grid.psi_values[-1]), ("n", len(report.grid)),
    ])
    pairs("derived", [("regime", p.regime.value), ("d", p.d), ("dual_exp", p.dual_exp)])
    section(
        "samples",
        " ".join(SAMPLE_COLUMNS),
        *(_SAMPLE_ROW % row for row in _sample_rows(report)),
    )
    if ms is not None:
        pairs("mid", [("psi", ms.psi), ("log_f", ms.log_f), ("ratio", report.mid_ratio)])
    if fit is None:
        pairs("fit", [("exponent_hat", "unavailable")])
    else:
        pairs("fit", [
            ("exponent_hat", fit.exponent_hat), ("coefficient_hat", fit.coefficient_hat),
            ("residual", fit.residual), ("window", f"[{fit.window[0]}, {fit.window[1]})"),
        ])
    if report.recovered_gaps is not None:
        gaps = zip(("a_rel_gap", "b_rel_gap"), report.recovered_gaps)
        pairs("recovered", [("a_hat", report.a_hat), ("b_hat", report.b_hat), *gaps])
    section(
        "checks",
        *map(_check_line, report.checks),
        *(kv("note", note) for note in report.notes),
    )
    return "\n".join(lines) + "\n"


def render_samples_csv(report: EquivalenceReport) -> str:
    """CSV of (psi, s, log_f, predictions, ratio) at full binary precision."""
    rows = [",".join(SAMPLE_COLUMNS), *(",".join(map(repr, row)) for row in _sample_rows(report))]
    return "\n".join(rows) + "\n"
