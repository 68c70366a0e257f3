import numpy as np

from flowcomplete import config, field, geometry, train


def test_scan_index_built_once_per_case(monkeypatch):
    # Every conditioned sample's features query an index over its case's
    # scan, and each case's scan is indexed once for the whole run.
    rng = np.random.default_rng(3)
    cases = [(rng.uniform(-1, 1, size=(120, 3)), rng.uniform(-1, 1, size=(20, 3)))
             for _ in range(3)]
    cfg = config.build_config({}, {"epochs": 3, "batch_size": 2, "copies": 2,
                                   "hidden_widths": (8,), "p_null": 0.2})
    seen = []
    original = field.condition_feature_matrix

    def spy(points, condition):
        if condition is not None:
            seen.append(condition)
        return original(points, condition)

    monkeypatch.setattr(field, "condition_feature_matrix", spy)
    train.fit(cases, cfg)
    assert seen
    assert all(isinstance(c, geometry.NeighborIndex) for c in seen)
    assert len({id(c) for c in seen}) <= len(cases)
    scans = {np.asarray(c).tobytes() for c in seen}
    assert scans <= {scan.tobytes() for _, scan in cases}
