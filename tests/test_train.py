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


def test_one_buffer_set_for_every_scan_size(monkeypatch):
    # Scans of three sizes give x0 of three sizes; one set of layer arrays,
    # grown to the largest, trains to the same bytes as fresh arrays per call.
    rng = np.random.default_rng(4)
    cases = [(rng.uniform(-1, 1, size=(90, 3)), rng.uniform(-1, 1, size=(m, 3)))
             for m in (14, 31, 22)]
    widths = (12, 9)
    cfg = config.build_config({}, {"epochs": 3, "batch_size": 2, "copies": 2,
                                   "hidden_widths": widths, "p_null": 0.2})
    original = field.loss_and_grad
    seen = []

    def shared(state, sample, weights, *, buffers=None):
        out = original(state, sample, weights, buffers=buffers)
        seen.append((len(sample.x_t), buffers, sum(b.nbytes for b in buffers)))
        return out

    def per_call(state, sample, weights, *, buffers=None):
        return original(state, sample, weights)

    monkeypatch.setattr(field, "loss_and_grad", per_call)
    want_state, want_opt, want_steps = train.fit(cases, cfg)
    monkeypatch.setattr(field, "loss_and_grad", shared)
    state, opt, steps = train.fit(cases, cfg)

    assert steps == want_steps
    for got, want in ((state.weights, want_state.weights),
                      (state.ema_weights, want_state.ema_weights),
                      (opt.m, want_opt.m), (opt.v, want_opt.v)):
        assert got.tobytes() == want.tobytes()
    sizes = {n for n, _, _ in seen}
    assert sizes == {28, 62, 44}
    assert len({id(buffers) for _, buffers, _ in seen}) == 1
    bound = (len(widths) + 1) * max(sizes) * max(widths) * 8
    assert max(nbytes for _, _, nbytes in seen) <= bound
