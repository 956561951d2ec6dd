"""Fig. 18 — ablation of the FRM and BUM units.

Paper result: on the eight NeRF-Synthetic scenes, the FRM unit alone trims
the accelerator runtime by 31.1 % on average, and FRM + BUM together trim it
by 68.6 %, relative to the accelerator without either unit.

Three model terms set the reductions, all measured by replaying the bench
trace through ``repro.accelerator.grid_core.GridCoreSimulator``:

* FRM: the read pass of both grid phases costs the FRM's
  ``FRMResult.mapped_cycles`` (reads packed across points into free banks)
  with the unit, and ``unmapped_cycles`` (one point's eight reads at a time)
  without it.
* BUM: the backward write-back issues ``BUMResult.n_sram_writes`` writes,
  smaller than the update count by the BUM's ``write_reduction``; the same
  fraction scales the SRAM write energy.
* Without the BUM, every update is an un-merged read-modify-write costing
  ``_UNMERGED_WRITE_RMW_CYCLES`` (3) bank cycles instead of 1.

The estimate uses these terms as per-access rates (accesses per core cycle,
fraction of writes merged) scaled to the workload's access counts, so the
trace's length cancels out; only its bank-conflict and reuse pattern enters.
"""

from benchmarks.common import accelerator_estimate, print_report


def _run():
    no_units = accelerator_estimate(frm=False, bum=False)
    frm_only = accelerator_estimate(frm=True, bum=False)
    both = accelerator_estimate(frm=True, bum=True)
    rows = [
        ["w/o FRM, w/o BUM", f"{no_units.total_s:.2f}", "100.0%"],
        ["w/ FRM, w/o BUM", f"{frm_only.total_s:.2f}",
         f"{100 * frm_only.total_s / no_units.total_s:.1f}%"],
        ["w/ FRM, w/ BUM", f"{both.total_s:.2f}",
         f"{100 * both.total_s / no_units.total_s:.1f}%"],
    ]
    frm_reduction = 1.0 - frm_only.total_s / no_units.total_s
    total_reduction = 1.0 - both.total_s / no_units.total_s
    return rows, frm_reduction, total_reduction


def test_fig18_frm_bum_ablation(benchmark):
    rows, frm_reduction, total_reduction = benchmark.pedantic(_run, rounds=1, iterations=1)
    print_report(
        "Fig. 18 — normalized runtime without the FRM / BUM units",
        ["Configuration", "Runtime (s)", "Normalized runtime"],
        rows,
    )
    print(f"FRM alone trims {100 * frm_reduction:.1f}% (paper: 31.1%); "
          f"FRM + BUM trim {100 * total_reduction:.1f}% (paper: 68.6%)")
    # Shape checks: both units contribute, and together they remove a large
    # fraction of the runtime.
    assert frm_reduction > 0.15
    assert total_reduction > frm_reduction
    assert total_reduction > 0.4
