"""Flamegraph rendering and differential profiles over folded stacks.

The stack sampler (:mod:`repro.obs.sampling`) produces folded stacks —
``"[role];module.func;module.func" -> sample count`` mappings.  This
module turns them into something a human can act on:

* :func:`build_flame` — the frame tree (self/total sample counts per
  node) a flamegraph is drawn from;
* :func:`render_flamegraph_html` / :func:`render_flamegraph_fragment` —
  a self-contained HTML flamegraph (inline CSS, absolutely-positioned
  rows, no scripts or external assets; the page scaffold of
  :mod:`repro.obs.htmlpage`).  Rendering is **byte-deterministic** for
  a given stack mapping: children sort by frame name, widths are
  fixed-precision percentages, and colors hash frame names with
  ``zlib.crc32`` (never Python's per-process-randomized ``hash``);
* :func:`frame_stats` / :func:`render_top_text` — the flat per-frame
  self/total table ``repro flamegraph`` prints;
* :func:`diff_frames` / :func:`render_diff_text` /
  :func:`render_diff_html` — differential profiles: per-frame
  self/total deltas in percentage points of each profile's samples,
  for comparing model generations or bench runs (``--diff A B``);
* :func:`render_collapsed` — the canonical ``stack count`` text form
  external flamegraph tooling consumes.

Pure functions over plain mappings: no sampler import, no I/O, stdlib
only — usable on live windows, journal rebuilds, or hand-built stacks.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from repro.obs.htmlpage import esc, page, style

__all__ = [
    "FlameNode",
    "FrameDelta",
    "build_flame",
    "frame_stats",
    "diff_frames",
    "render_collapsed",
    "render_top_text",
    "render_flamegraph_fragment",
    "render_flamegraph_html",
    "render_diff_text",
    "render_diff_html",
]

#: Pixel height of one flamegraph row.
ROW_HEIGHT = 18

#: Nodes narrower than this share of the root are not drawn (keeps the
#: page bounded under high stack diversity); the cutoff is part of the
#: deterministic-rendering contract, never a sampling artifact.
MIN_WIDTH_PERCENT = 0.05


@dataclass
class FlameNode:
    """One frame in the merged stack tree.

    ``total_count`` counts samples passing through the frame at this
    position; ``self_count`` counts samples that ended here (on-CPU in
    this frame).
    """

    name: str
    self_count: int = 0
    total_count: int = 0
    children: Dict[str, "FlameNode"] = field(default_factory=dict)

    def sorted_children(self) -> List["FlameNode"]:
        return [self.children[name] for name in sorted(self.children)]

    @property
    def depth(self) -> int:
        """Height of the subtree rooted here (a leaf has depth 1)."""
        if not self.children:
            return 1
        return 1 + max(child.depth for child in self.children.values())


def build_flame(stacks: Mapping[str, int]) -> FlameNode:
    """Merge folded stacks into a tree rooted at a synthetic ``all``."""
    root = FlameNode(name="all")
    for folded, count in stacks.items():
        count = int(count)
        if count <= 0:
            continue
        root.total_count += count
        node = root
        for frame in folded.split(";"):
            child = node.children.get(frame)
            if child is None:
                child = node.children[frame] = FlameNode(name=frame)
            child.total_count += count
            node = child
        node.self_count += count
    return root


def frame_stats(stacks: Mapping[str, int]) -> Dict[str, Tuple[int, int]]:
    """Per-frame ``(self, total)`` sample counts across folded stacks.

    Each frame counts at most once per stack toward ``total``, so
    recursion cannot push a frame's total past the sample count.
    """
    stats: Dict[str, List[int]] = {}
    for folded, count in stacks.items():
        count = int(count)
        if count <= 0:
            continue
        frames = folded.split(";")
        for frame in set(frames):
            stats.setdefault(frame, [0, 0])[1] += count
        stats.setdefault(frames[-1], [0, 0])[0] += count
    return {
        frame: (int(self_n), int(total_n))
        for frame, (self_n, total_n) in sorted(stats.items())
    }


def render_collapsed(stacks: Mapping[str, int]) -> str:
    """The canonical collapsed-stack text form: ``stack count`` lines,
    sorted by stack — the input format of external flamegraph tools."""
    lines = [
        f"{folded} {int(count)}"
        for folded, count in sorted(stacks.items())
        if int(count) > 0
    ]
    return "\n".join(lines) + ("\n" if lines else "")


def render_top_text(
    stacks: Mapping[str, int], limit: int = 25
) -> str:
    """The flat hot-frame table: self/total counts and shares, sorted
    by self-heaviest first (ties broken by frame name)."""
    stats = frame_stats(stacks)
    total = sum(int(count) for count in stacks.values())
    if not stats or total <= 0:
        return "no samples\n"
    ranked = sorted(stats.items(), key=lambda item: (-item[1][0], item[0]))
    width = max(len(frame) for frame, _ in ranked[:limit])
    out = [
        f"{'frame':<{width}}  {'self':>6}  {'self%':>6}  "
        f"{'total':>6}  {'total%':>6}"
    ]
    for frame, (self_n, total_n) in ranked[:limit]:
        out.append(
            f"{frame:<{width}}  {self_n:>6}  {100.0 * self_n / total:>5.1f}%  "
            f"{total_n:>6}  {100.0 * total_n / total:>5.1f}%"
        )
    if len(ranked) > limit:
        out.append(f"... {len(ranked) - limit} more frames")
    return "\n".join(out) + "\n"


# ----------------------------------------------------------------------
# HTML flamegraph (self-contained: inline CSS, no scripts)
# ----------------------------------------------------------------------
#: The rules of a :func:`render_flamegraph_fragment` block, for any
#: page that embeds one.
FLAME_RULES = """
.flame { position: relative; width: 100%; margin: .75rem 0;
         border: 1px solid #e3e7ee; border-radius: 3px; overflow: hidden; }
.flame div { position: absolute; height: 16px; box-sizing: border-box;
             border: 1px solid rgba(255,255,255,.65); border-radius: 2px;
             font: 11px/14px ui-monospace, 'SF Mono', Menlo, monospace;
             white-space: nowrap; overflow: hidden; text-overflow: clip;
             padding: 0 2px; color: #1a2433; }
""".strip()

_FLAME_STYLE = style(
    "72rem",
    """
.delta-pos { color: #9d3030; } .delta-neg { color: #2a7a46; }
.muted { color: #68748a; }
"""
    + FLAME_RULES,
)


def _flame_color(name: str) -> str:
    """A stable warm color for a frame: crc32-hashed hue, so the same
    frame gets the same color in every process (Python's ``hash`` is
    per-process randomized and would break byte-determinism)."""
    digest = zlib.crc32(name.encode("utf-8"))
    hue = digest % 50  # warm band: red..orange..yellow
    lightness = 62 + (digest // 50) % 12
    return f"hsl({hue},86%,{lightness}%)"


def _render_node(
    node: FlameNode,
    left: float,
    width: float,
    depth: int,
    total: int,
    out: List[str],
) -> None:
    if width < MIN_WIDTH_PERCENT:
        return
    share = node.total_count / total
    title = (
        f"{node.name} — self {node.self_count}, "
        f"total {node.total_count} ({100.0 * share:.2f}%)"
    )
    out.append(
        f'<div style="left:{left:.4f}%;top:{depth * ROW_HEIGHT}px;'
        f"width:{width:.4f}%;background:{_flame_color(node.name)}\" "
        f'title="{esc(title)}">{esc(node.name)}</div>'
    )
    cursor = left
    for child in node.sorted_children():
        child_width = 100.0 * child.total_count / total
        _render_node(child, cursor, child_width, depth + 1, total, out)
        cursor += child_width


def render_flamegraph_fragment(stacks: Mapping[str, int]) -> str:
    """The flamegraph ``<div class=flame>`` block alone, for embedding
    (the dashboard's profiling section uses this)."""
    root = build_flame(stacks)
    if root.total_count <= 0:
        return '<p class="muted">no samples</p>'
    out: List[str] = []
    _render_node(root, 0.0, 100.0, 0, root.total_count, out)
    height = root.depth * ROW_HEIGHT + ROW_HEIGHT
    return (
        f'<div class="flame" style="height:{height}px">'
        + "".join(out)
        + "</div>"
    )


def render_flamegraph_html(
    stacks: Mapping[str, int],
    title: str = "repro — sampled flamegraph",
    subtitle: str = "",
) -> str:
    """A self-contained flamegraph page: the graph plus the flat
    hot-frame table.  Byte-deterministic for a given stack mapping."""
    total = sum(int(count) for count in stacks.values())
    body: List[str] = [f"<h1>{esc(title)}</h1>"]
    if subtitle:
        body.append(f'<p class="muted">{esc(subtitle)}</p>')
    body.append(
        f"<p>{total} samples, {len(stacks)} distinct stacks</p>"
    )
    body.append(render_flamegraph_fragment(stacks))
    stats = frame_stats(stacks)
    if stats and total > 0:
        ranked = sorted(
            stats.items(), key=lambda item: (-item[1][0], item[0])
        )
        body.append("<h2>Hot frames</h2><table>")
        body.append(
            "<tr><th>frame</th><th class=num>self</th>"
            "<th class=num>self%</th><th class=num>total</th>"
            "<th class=num>total%</th></tr>"
        )
        for frame, (self_n, total_n) in ranked[:40]:
            body.append(
                f"<tr><td><code>{esc(frame)}</code></td>"
                f'<td class="num">{self_n}</td>'
                f'<td class="num">{100.0 * self_n / total:.1f}%</td>'
                f'<td class="num">{total_n}</td>'
                f'<td class="num">{100.0 * total_n / total:.1f}%</td></tr>'
            )
        body.append("</table>")
    return page(title, body, _FLAME_STYLE)


# ----------------------------------------------------------------------
# Differential profiles
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FrameDelta:
    """One frame's before/after sample counts and share deltas.

    Shares are percentages of each profile's own total samples, so two
    profiles of different lengths compare meaningfully; ``d_self`` /
    ``d_total`` are the after-minus-before deltas in percentage points.
    """

    frame: str
    self_before: int
    self_after: int
    total_before: int
    total_after: int
    self_share_before: float
    self_share_after: float
    total_share_before: float
    total_share_after: float

    @property
    def d_self(self) -> float:
        return self.self_share_after - self.self_share_before

    @property
    def d_total(self) -> float:
        return self.total_share_after - self.total_share_before


def diff_frames(
    before: Mapping[str, int], after: Mapping[str, int]
) -> List[FrameDelta]:
    """Per-frame self/total deltas between two folded-stack profiles,
    sorted by largest absolute self-share movement first."""
    stats_a = frame_stats(before)
    stats_b = frame_stats(after)
    total_a = sum(int(count) for count in before.values())
    total_b = sum(int(count) for count in after.values())
    deltas: List[FrameDelta] = []
    for frame in sorted(set(stats_a) | set(stats_b)):
        self_a, tot_a = stats_a.get(frame, (0, 0))
        self_b, tot_b = stats_b.get(frame, (0, 0))
        deltas.append(
            FrameDelta(
                frame=frame,
                self_before=self_a,
                self_after=self_b,
                total_before=tot_a,
                total_after=tot_b,
                self_share_before=100.0 * self_a / total_a if total_a else 0.0,
                self_share_after=100.0 * self_b / total_b if total_b else 0.0,
                total_share_before=100.0 * tot_a / total_a if total_a else 0.0,
                total_share_after=100.0 * tot_b / total_b if total_b else 0.0,
            )
        )
    deltas.sort(key=lambda d: (-abs(d.d_self), -abs(d.d_total), d.frame))
    return deltas


def render_diff_text(
    deltas: Iterable[FrameDelta], limit: int = 30
) -> str:
    """The differential-profile table as aligned text: self/total
    percentage-point deltas, biggest movers first."""
    rows = list(deltas)
    if not rows:
        return "no frames to compare\n"
    shown = rows[:limit]
    width = max(len(delta.frame) for delta in shown)
    out = [
        f"{'frame':<{width}}  {'self A%':>8}  {'self B%':>8}  "
        f"{'d self':>8}  {'d total':>8}"
    ]
    for delta in shown:
        out.append(
            f"{delta.frame:<{width}}  {delta.self_share_before:>7.2f}%  "
            f"{delta.self_share_after:>7.2f}%  {delta.d_self:>+7.2f}pp  "
            f"{delta.d_total:>+7.2f}pp"
        )
    if len(rows) > limit:
        out.append(f"... {len(rows) - limit} more frames")
    return "\n".join(out) + "\n"


def render_diff_html(
    deltas: Iterable[FrameDelta],
    title: str = "repro — differential profile",
    subtitle: str = "",
    limit: int = 80,
) -> str:
    """The differential profile as a self-contained HTML page."""
    rows = list(deltas)
    body: List[str] = [f"<h1>{esc(title)}</h1>"]
    if subtitle:
        body.append(f'<p class="muted">{esc(subtitle)}</p>')
    if not rows:
        body.append('<p class="muted">no frames to compare</p>')
        return page(title, body, _FLAME_STYLE)
    body.append("<table>")
    body.append(
        "<tr><th>frame</th><th class=num>self A%</th>"
        "<th class=num>self B%</th><th class=num>&Delta; self</th>"
        "<th class=num>&Delta; total</th></tr>"
    )
    for delta in rows[:limit]:
        self_css = "delta-pos" if delta.d_self > 0 else "delta-neg"
        total_css = "delta-pos" if delta.d_total > 0 else "delta-neg"
        body.append(
            f"<tr><td><code>{esc(delta.frame)}</code></td>"
            f'<td class="num">{delta.self_share_before:.2f}%</td>'
            f'<td class="num">{delta.self_share_after:.2f}%</td>'
            f'<td class="num {self_css}">{delta.d_self:+.2f}pp</td>'
            f'<td class="num {total_css}">{delta.d_total:+.2f}pp</td></tr>'
        )
    body.append("</table>")
    if len(rows) > limit:
        body.append(
            f'<p class="muted">{len(rows) - limit} more frames not shown</p>'
        )
    return page(title, body, _FLAME_STYLE)
