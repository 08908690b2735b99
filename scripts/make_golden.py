#!/usr/bin/env python3
"""Regenerate data/golden_sweep.csv: the default negativity sweep
(N in {2, 4, 6}, G^2 from 1 to 3 in steps of 0.05, both channel modes,
block method).  The acceptance tests hold fresh runs to this file twice:
every value within 1e-9 (criterion 8c) and the whole file byte for byte
(test_golden_sweep_bytes), so a change that moves any printed digit
shows up as a diff here."""

from pathlib import Path

from noonamp.cli import SweepConfig, rows_to_csv, run_sweep

OUT = Path(__file__).resolve().parent.parent / "data" / "golden_sweep.csv"


def main():
    rows = []
    for family in ("noon_symmetric", "noon_asymmetric"):
        cfg = SweepConfig(family=family, n_values=(2, 4, 6), g2_start=1.0,
                          g2_stop=3.0, g2_step=0.05, method="block")
        rows.extend(run_sweep(cfg))
    rows.sort(key=lambda r: (r["family"], r["n"], r["g_squared"]))
    OUT.parent.mkdir(exist_ok=True)
    OUT.write_text(rows_to_csv(rows))
    print(f"wrote {len(rows)} rows to {OUT}")


if __name__ == "__main__":
    main()
