import json
import re
import time

from cycledescent.bijections import gamma, parse_signed
from cycledescent.cli import main
from cycledescent.diagrams import render_svg, render_text
from cycledescent.matchings import mk_matching


def fig_callan():
    return gamma(parse_signed("(1+ 6- 3+ 4+)(2+ 8- 7+)(5+)"))


def test_text_render_groups_by_class():
    text = render_text(fig_callan())
    lines = text.splitlines()
    assert lines[0].startswith("row 1:")
    assert lines[1].startswith("row 0:")
    assert any(line.startswith("arc:") for line in lines)
    assert any(line.startswith("downline:") and "(1,1)-(4,0)" in line for line in lines)
    assert any(line.startswith("vertical:") and "(5,0)-(5,1)" in line for line in lines)
    assert "warning" not in text


def test_text_render_warns_on_uplines():
    m = mk_matching([1, 2], [((1, 0), (2, 1)), ((1, 1), (2, 0))])
    text = render_text(m)
    assert "warning" in text
    assert "(1,0)-(2,1)" in text


def test_svg_render_deterministic_and_complete():
    m = fig_callan()
    svg = render_svg(m)
    assert svg == render_svg(m)
    assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")
    assert svg.count("<circle") == 16  # two dots per support index
    assert svg.count("<path") == 4  # four arcs
    assert svg.count("<line") == 4  # three downlines plus a vertical
    assert "warning" not in svg


def test_svg_single_vertical():
    svg = render_svg(mk_matching([1], [((1, 0), (1, 1))]))
    assert svg.count("<circle") == 2
    assert svg.count("<line") == 1


def test_svg_warns_on_uplines():
    m = mk_matching([1, 2], [((1, 0), (2, 1)), ((1, 1), (2, 0))])
    assert "warning" in render_svg(m)


def test_svg_slots_follow_rank_in_sparse_support():
    m = mk_matching([2, 5, 9], [((2, 0), (2, 1)), ((5, 1), (9, 1)), ((5, 0), (9, 0))])
    svg = render_svg(m)
    assert 'width="160"' in svg  # three slots, not nine
    assert re.findall(r'<text x="([0-9.]+)"', svg) == ["40.0", "80.0", "120.0"]
    assert re.findall(r'<circle cx="([0-9.]+)"', svg) == [
        "40.0", "40.0", "80.0", "80.0", "120.0", "120.0"
    ]
    assert '<line x1="40.0" y1="140.0" x2="40.0" y2="60.0"' in svg
    assert '<path d="M 80.0 60.0 A 20.0 20.0 0 0 1 120.0 60.0"' in svg
    assert '<path d="M 80.0 140.0 A 20.0 20.0 0 0 0 120.0 140.0"' in svg


def test_svg_render_is_linear_in_the_support(capsys):
    # all verticals, n = 30 000: one rank lookup per endpoint must be O(1)
    n = 30_000
    doc = json.dumps(
        {"support": list(range(1, n + 1)), "edges": [[[i, 0], [i, 1]] for i in range(1, n + 1)]}
    )
    start = time.perf_counter()
    code = main(["diagram", "--input", doc, "--format", "svg"])
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    assert code == 0
    assert out.count("<line") == n and out.count("<circle") == 2 * n
    assert f'<text x="{40.0 + 40.0 * (n - 1):.1f}"' in out
    assert elapsed < 5.0, f"{elapsed:.2f} s"
