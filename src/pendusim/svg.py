"""Tiny self-contained SVG line plots (inline polylines, no external assets)."""

COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b",
          "#17becf", "#7f7f7f")

WIDTH, HEIGHT = 720, 320
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 64, 16, 34, 42


def _fmt(v):
    return f"{v:.6g}"


def write_svg(path, title, t, series, ylabel=""):
    """Write one chart with a polyline per (label, values) pair in series."""
    t = list(map(float, t))
    lo = min((min(vals) for _, vals in series if len(vals)), default=0.0)
    hi = max((max(vals) for _, vals in series if len(vals)), default=1.0)
    if hi - lo < 1e-12:
        pad = max(1e-6, abs(hi) * 0.1)
        lo, hi = lo - pad, hi + pad
    else:
        pad = 0.05 * (hi - lo)
        lo, hi = lo - pad, hi + pad
    t0 = t[0] if t else 0.0
    t1 = t[-1] if t and t[-1] > t0 else t0 + 1.0
    pw = WIDTH - MARGIN_L - MARGIN_R
    ph = HEIGHT - MARGIN_T - MARGIN_B

    def sx(x):
        return MARGIN_L + pw * (x - t0) / (t1 - t0)

    def sy(y):
        return MARGIN_T + ph * (1.0 - (y - lo) / (hi - lo))

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{WIDTH/2}" y="20" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14">{title}</text>',
        f'<rect x="{MARGIN_L}" y="{MARGIN_T}" width="{pw}" height="{ph}" '
        f'fill="none" stroke="#333" stroke-width="1"/>',
    ]
    # horizontal gridlines and y tick labels
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        y = lo + frac * (hi - lo)
        parts.append(f'<line x1="{MARGIN_L}" y1="{sy(y):.1f}" x2="{MARGIN_L+pw}" '
                     f'y2="{sy(y):.1f}" stroke="#ddd" stroke-width="0.5"/>')
        parts.append(f'<text x="{MARGIN_L-6}" y="{sy(y)+4:.1f}" text-anchor="end" '
                     f'font-family="sans-serif" font-size="10">{_fmt(y)}</text>')
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        x = t0 + frac * (t1 - t0)
        parts.append(f'<text x="{sx(x):.1f}" y="{HEIGHT-22}" text-anchor="middle" '
                     f'font-family="sans-serif" font-size="10">{_fmt(x)}</text>')
    parts.append(f'<text x="{MARGIN_L+pw/2}" y="{HEIGHT-6}" text-anchor="middle" '
                 f'font-family="sans-serif" font-size="11">t [s]</text>')
    if ylabel:
        parts.append(f'<text x="14" y="{MARGIN_T+ph/2}" text-anchor="middle" '
                     f'font-family="sans-serif" font-size="11" '
                     f'transform="rotate(-90 14 {MARGIN_T+ph/2})">{ylabel}</text>')
    for i, (label, vals) in enumerate(series):
        color = COLORS[i % len(COLORS)]
        pts = " ".join(f"{sx(x):.2f},{sy(float(v)):.2f}" for x, v in zip(t, vals))
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                     f'stroke-width="1.2"/>')
        lx = MARGIN_L + pw - 90
        ly = MARGIN_T + 14 + 14 * i
        parts.append(f'<line x1="{lx}" y1="{ly-4}" x2="{lx+18}" y2="{ly-4}" '
                     f'stroke="{color}" stroke-width="2"/>')
        parts.append(f'<text x="{lx+24}" y="{ly}" font-family="sans-serif" '
                     f'font-size="11">{label}</text>')
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts) + "\n")


def write_trajectory_svgs(traj, outdir):
    """One SVG per plotted signal group: arm/yaw, CoM, movers, roll/pitch."""
    import os
    n = traj.n_links
    groups = [
        ("qr_gamma.svg", "arm joints and yaw [rad]",
         [("gamma", traj.q[:, 2])] + [(f"qr{i+1}", traj.q[:, 5 + i]) for i in range(n)]),
        ("xc.svg", "CoM position [m]",
         [("xc_x", traj.xc[:, 0]), ("xc_y", traj.xc[:, 1])]),
        ("qm.svg", "mover positions [m]",
         [("qm1", traj.q[:, 3]), ("qm2", traj.q[:, 4])]),
        ("phi.svg", "roll and pitch [rad]",
         [("alpha", traj.q[:, 0]), ("beta", traj.q[:, 1])]),
    ]
    paths = []
    for fname, title, series in groups:
        path = os.path.join(outdir, fname)
        write_svg(path, title, traj.t, series)
        paths.append(path)
    return paths
