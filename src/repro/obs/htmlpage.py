"""The scaffold of every self-contained HTML page :mod:`repro.obs` writes.

The span-tree profile (``repro trace --html``), incident bundles,
flamegraphs and the dashboard are each one static page: inline CSS, no
scripts, no external assets.  They share the wrapper (:func:`page`),
the escaping (:func:`esc`) and the base rules of their style sheets
(:func:`style`); each page adds its own rules.  Standard library only.
"""

from __future__ import annotations

import html
from typing import List

__all__ = ["REPORT_STYLE", "esc", "page", "style"]

_BASE_RULES = """
h1 { font-size: 1.3rem; } h2 { font-size: 1.05rem; margin-top: 1.6rem; }
code { background: #f2f4f8; padding: .1rem .3rem; border-radius: 3px; }
table { border-collapse: collapse; width: 100%; margin: .5rem 0; }
th, td { text-align: left; padding: .25rem .6rem; border-bottom: 1px solid #e3e7ee; }
td.num, th.num { text-align: right; font-variant-numeric: tabular-nums; }
""".strip()


def style(max_width: str, rules: str) -> str:
    """A page's style sheet: the shared body, heading and table rules
    at ``max_width``, then the page's own ``rules``."""
    return (
        "body { font: 14px/1.45 -apple-system, 'Segoe UI', Roboto, sans-serif;\n"
        f"       margin: 2rem auto; max-width: {max_width}; color: #1a2433; }}\n"
        f"{_BASE_RULES}\n{rules.strip()}"
    )


#: The report pages' style: the span-tree profile and incident bundles.
REPORT_STYLE = style(
    "60rem",
    """
.bar { background: #e8ecf3; border-radius: 3px; height: .8rem; width: 12rem; }
.bar > span { display: block; height: 100%; border-radius: 3px; background: #4973b8; }
.delta-pos { color: #9d3030; } .delta-neg { color: #2a7a46; }
""",
)


def esc(value: object) -> str:
    """``value`` as text, HTML-escaped (quotes included)."""
    return html.escape(str(value), quote=True)


def page(title: str, body: List[str], css: str) -> str:
    """One HTML page: ``title``, the ``css`` style sheet inline, and
    the ``body`` fragments one per line."""
    return (
        "<!doctype html>\n<html><head><meta charset=\"utf-8\">"
        f"<title>{esc(title)}</title>"
        f"<style>{css}</style></head>\n<body>\n"
        + "\n".join(body)
        + "\n</body></html>\n"
    )
