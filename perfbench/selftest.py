"""Show that every correctness check of the benchmark rejects a corrupted output.

    python3 perfbench/selftest.py

Tracks one reference episode (lambda 20) with each engine and trains a
small model, checks the real outputs, which must pass, then corrupts each
output in one way and checks it again, which must fail. Exits 1 if a
corrupted output passes or a real one fails.
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import checks
import run


def main():
    p = run.load_program()
    config = p.five_crossing_targets(p_d=0.9, e_lambda=20.0)
    filt, gate = p.FilterParams(), p.GateParams()
    r_diag, gamma = filt.r_diag, gate.gamma
    density = config.e_lambda / config.region.area
    dataset = p.make_training_set(p.seeded_variants(p.five_crossing_targets(seed=500), 6))
    model, curve = p.deepda.train(dataset, p.NetConfig(m_max=60), p.TrainConfig(epochs=3))

    calls = {}
    episodes = {}
    for method in run.ENGINES:
        engine = p.bench.make_engine(method, config, filt, gate, model)
        recorded = []

        class Recorder:
            name, mode = engine.name, engine.mode

            def associate(self, tracks, scan, engine=engine, recorded=recorded):
                out = engine.associate(tracks, scan)
                recorded.append((tracks, scan, out))
                return out

        truth = p.generate_truth(config)
        scans = p.generate_scans(truth, (0, 1))
        positions = truth.states[:, :, [0, 2]]
        tracked = p.bench.track_scans(truth.states[0], scans, positions, Recorder(), filt, p.OspaParams(10.0, 2.0))
        calls[method] = recorded
        episodes[method] = (positions, tracked.states, tracked.result.scan_ospa)

    cases = []

    def case(check, label, problems, should_fail):
        ok = bool(problems) == should_fail
        cases.append(ok)
        verdict = "rejected" if problems else "accepted"
        print(f"{'ok ' if ok else 'BAD'} {check:<8} {label:<46} {verdict}: {problems[0] if problems else ''}")

    # HA: a scan with at least one assigned pair cheaper than a miss.
    for tracks, scan, out in calls["ha"]:
        inn = checks.innovations(tracks, scan.measurements, r_diag)
        miss = np.sqrt(gamma) * np.mean([[np.sqrt(s[0, 0]), np.sqrt(s[1, 1])] for _, _, s, _ in inn])
        cheap = [j for j, i in out.pairs.items() if inn[j][1][i] < miss]
        outside = [(j, i) for j in range(len(tracks)) for i in range(scan.num_measurements) if inn[j][0][i] > gamma]
        if cheap and outside and len(out.pairs) >= 2:
            break
    pairs = dict(out.pairs)
    m = scan.num_measurements

    def assignment(new_pairs):
        taken = set(new_pairs.values())
        return SimpleNamespace(pairs=new_pairs, unassigned_tracks=set(range(len(tracks))) - set(new_pairs),
                               unassigned_measurements=set(range(m)) - taken)

    case("ha", "real assignment", checks.check_ha(tracks, scan, out, r_diag, gamma), False)
    j0, j1 = list(pairs)[:2]
    twice = dict(pairs)
    twice[j1] = pairs[j0]
    bad = SimpleNamespace(pairs=twice, unassigned_tracks=set(out.unassigned_tracks),
                          unassigned_measurements=set(out.unassigned_measurements) | {pairs[j1]})
    case("ha", "one measurement on two tracks", checks.check_ha(tracks, scan, bad, r_diag, gamma), True)
    j, i = outside[0]
    moved = {k: v for k, v in pairs.items() if k != j and v != i}
    moved[j] = i
    case("ha", "pair outside the gate", checks.check_ha(tracks, scan, assignment(moved), r_diag, gamma), True)
    dropped = {k: v for k, v in pairs.items() if k != cheap[0]}
    case("ha", "a cheap pair dropped (not optimal)", checks.check_ha(tracks, scan, assignment(dropped), r_diag, gamma), True)

    # JPDA: a scan with mass on some measurement and an ungated measurement.
    for tracks, scan, out in calls["jpda"]:
        rows = out.rows.copy()
        gates = [set(np.flatnonzero(d2 <= gamma)) for d2, _, _, _ in checks.innovations(tracks, scan.measurements, r_diag)]
        if all(0 < len(g) <= 8 for g in gates) and len(gates[0]) < scan.num_measurements:
            break
    args = (r_diag, gamma, config.p_d, density, 8)
    m = scan.num_measurements
    case("jpda", "real rows", checks.check_jpda(tracks, scan, rows, *args), False)
    scaled = rows.copy()
    scaled[0] *= 1.1
    case("jpda", "row scaled by 1.1", checks.check_jpda(tracks, scan, scaled, *args), True)
    leak = rows.copy()
    ungated = min(set(range(m)) - gates[0])
    leak[0, m] -= 0.01 * leak[0, m]
    leak[0, ungated] += 0.01 * rows[0, m]
    case("jpda", "mass moved outside the gate", checks.check_jpda(tracks, scan, leak, *args), True)
    shifted = rows.copy()  # JPDA always leaves (1 - p_d) weight on the miss
    i = min(gates[0])
    shifted[0, m] -= 0.5 * rows[0, m]
    shifted[0, i] += 0.5 * rows[0, m]
    case("jpda", "mass moved within the gate", checks.check_jpda(tracks, scan, shifted, *args), True)
    shared = np.zeros_like(rows)
    shared[:, m] = 1.0
    shared[0, i], shared[0, m] = 0.7, 0.3
    shared[1, i], shared[1, m] = 0.7, 0.3
    case("jpda", "one measurement carrying mass 1.4", checks.check_jpda(tracks, scan, shared, *args), True)

    # DeepDA: rows of the model saved and loaded back.
    tracks, scan, out = calls["deepda"][0]
    with tempfile.TemporaryDirectory(dir=run.HERE) as tmp:
        path = Path(tmp) / "model.json"
        p.save_model(model, path)
        again = p.forward_scan(p.load_model(path), tracks, scan)[0].rows
    case("deepda", "real rows", checks.check_deepda(tracks, scan, out.rows, again), False)
    case("deepda", "miss column dropped", checks.check_deepda(tracks, scan, out.rows[:, :-1], again), True)
    nudged = out.rows.copy()
    nudged[0, 0] += 1e-12
    nudged[0, -1] -= 1e-12
    case("deepda", "rows nudged by 1e-12 after reload", checks.check_deepda(tracks, scan, nudged, again), True)

    # Scoring.
    positions, states, scan_ospa = episodes["jpda"]
    case("scoring", "real per-scan OSPA", checks.check_scoring(positions, states, scan_ospa, 10.0, 2.0), False)
    wrong = list(scan_ospa)
    wrong[3] += 1e-6
    case("scoring", "one scan's OSPA off by 1e-6", checks.check_scoring(positions, states, wrong, 10.0, 2.0), True)

    # Training.
    case("train", "real loss curve", checks.check_loss_curve(curve), False)
    case("train", "a NaN in the curve", checks.check_loss_curve(curve[:-1] + [float("nan")]), True)
    case("train", "a rising curve", checks.check_loss_curve(list(reversed(curve))), True)

    print(f"{sum(cases)} of {len(cases)} cases behaved as expected")
    return 0 if all(cases) else 1


if __name__ == "__main__":
    sys.exit(main())
