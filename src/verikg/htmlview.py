"""Static HTML rendering of the knowledge graph.

Single embedded template with inline data; no network fetches. Nodes are
laid out on a circle grouped by type, colored per type, with click-to-
highlight and hover details driven by a small inline script.
"""

from __future__ import annotations

from verikg.codec import canonical_json
from verikg.kg import Graph

TYPE_COLORS = {
    "spec_chunk": "#8da0cb",
    "requirement": "#66c2a5",
    "property": "#fc8d62",
    "formal_result": "#e78ac3",
    "cex_case": "#d53e4f",
    "coverage_metrics": "#a6d854",
    "rtl_module": "#ffd92f",
    "rtl_signal": "#e5c494",
    "rtl_statement": "#b3b3b3",
}

_TEMPLATE = """<!DOCTYPE html>
<html>
<head>
<meta charset="utf-8">
<title>__TITLE__</title>
<style>
  body { font-family: sans-serif; margin: 0; background: #fafafa; }
  #info { position: fixed; top: 8px; left: 8px; background: #fff;
          border: 1px solid #ccc; padding: 6px 10px; font-size: 12px;
          max-width: 360px; word-wrap: break-word; }
  #legend { position: fixed; top: 8px; right: 8px; background: #fff;
            border: 1px solid #ccc; padding: 6px 10px; font-size: 12px; }
  .legend-swatch { display: inline-block; width: 10px; height: 10px;
                   margin-right: 4px; }
  line { stroke: #bbb; stroke-width: 1; }
  line.hl { stroke: #d62728; stroke-width: 2; }
  circle { stroke: #555; stroke-width: 0.5; cursor: pointer; }
  circle.dim { opacity: 0.25; }
  circle.stale { stroke: #d62728; stroke-width: 2; stroke-dasharray: 2 1; }
</style>
</head>
<body>
<div id="info">click a node</div>
<div id="legend">__LEGEND__</div>
<svg id="view" width="100%" height="100%" viewBox="0 0 1200 1200"></svg>
<script>
const DATA = __DATA__;
const svg = document.getElementById("view");
const info = document.getElementById("info");
const NS = "http://www.w3.org/2000/svg";
const pos = {};
DATA.nodes.forEach((n, i) => {
  const a = 2 * Math.PI * i / DATA.nodes.length;
  pos[n.id] = [600 + 500 * Math.cos(a), 600 + 500 * Math.sin(a)];
});
const lines = [];
DATA.edges.forEach(e => {
  const el = document.createElementNS(NS, "line");
  const [x1, y1] = pos[e.src], [x2, y2] = pos[e.dst];
  el.setAttribute("x1", x1); el.setAttribute("y1", y1);
  el.setAttribute("x2", x2); el.setAttribute("y2", y2);
  const t = document.createElementNS(NS, "title");
  t.textContent = e.src + " -" + e.type + "-> " + e.dst;
  el.appendChild(t);
  svg.appendChild(el);
  lines.push([e, el]);
});
const circles = {};
DATA.nodes.forEach(n => {
  const el = document.createElementNS(NS, "circle");
  const [x, y] = pos[n.id];
  el.setAttribute("cx", x); el.setAttribute("cy", y);
  el.setAttribute("r", 8);
  el.setAttribute("fill", n.color);
  if (n.stale) el.classList.add("stale");
  const t = document.createElementNS(NS, "title");
  t.textContent = n.id + " [" + n.type + "]";
  el.appendChild(t);
  el.addEventListener("click", () => select(n));
  svg.appendChild(el);
  circles[n.id] = el;
});
function select(n) {
  info.textContent = n.id + " [" + n.type + "] " + JSON.stringify(n.attrs);
  const linked = new Set([n.id]);
  lines.forEach(([e, el]) => {
    const hit = e.src === n.id || e.dst === n.id;
    el.classList.toggle("hl", hit);
    if (hit) { linked.add(e.src); linked.add(e.dst); }
  });
  Object.entries(circles).forEach(([id, el]) =>
    el.classList.toggle("dim", !linked.has(id)));
}
</script>
</body>
</html>
"""


def render_html(g: Graph, title: str = "verification knowledge graph") -> str:
    nodes = [
        {
            "id": n.id,
            "type": n.type,
            "attrs": n.attrs,
            "stale": n.stale,
            "color": TYPE_COLORS.get(n.type, "#cccccc"),
        }
        for n in sorted(g.nodes.values(), key=lambda n: (n.type, n.id))
    ]
    edges = [
        {"src": e.src, "dst": e.dst, "type": e.type}
        for e in sorted(g.edges, key=lambda e: (e.type, e.src, e.dst))
    ]
    data = canonical_json({"nodes": nodes, "edges": edges})
    legend = "".join(
        f'<div><span class="legend-swatch" style="background:{color}"></span>'
        f'{name}</div>'
        for name, color in sorted(TYPE_COLORS.items())
    )
    return (_TEMPLATE
            .replace("__TITLE__", title)
            .replace("__LEGEND__", legend)
            .replace("__DATA__", data))
