from perfbench import schedule as sch

DATASETS = ("a", "b", "c")


def test_same_seed_same_cell_order():
    n = 3 * len(sch.sweep_grid())
    one = sch.take(sch.sweep_order(7), n)
    assert one == sch.take(sch.sweep_order(7), n)
    assert one != sch.take(sch.sweep_order(8), n)
    # Every pass is a full grid.
    grid = sorted(sch.sweep_grid(), key=repr)
    for k in range(3):
        chunk = one[k * len(grid):(k + 1) * len(grid)]
        assert sorted(chunk, key=repr) == grid


def test_same_seed_same_job_schedule():
    one = sch.take(sch.job_schedule(7, DATASETS), 200)
    assert one == sch.take(sch.job_schedule(7, DATASETS), 200)
    assert one != sch.take(sch.job_schedule(8, DATASETS), 200)


def test_job_schedule_resubmits_a_fixed_share_of_finished_jobs():
    jobs = sch.take(sch.job_schedule(3, DATASETS), 400)
    fresh_seen = set()
    for start in range(0, len(jobs), sch.SERVICE_BLOCK):
        block = jobs[start:start + sch.SERVICE_BLOCK]
        hits = [j for j in block if j.resubmit]
        if start:
            assert len(hits) == sch.SERVICE_RESUBMITS_PER_BLOCK
        for j in block:
            key = (j.dataset, j.algorithm, j.devices, j.seed)
            if j.resubmit:
                assert key in fresh_seen
            else:
                assert key not in fresh_seen
                fresh_seen.add(key)


def test_same_seed_same_update_stream():
    from repro.harness.datasets import quality_instance
    from repro.streaming import EdgeStream

    g = quality_instance("GAP-kron")

    def stream(seed):
        return EdgeStream.generate(g, num_batches=5,
                                   batch_size=sch.STREAM_BATCH_OPS,
                                   seed=seed).batches

    assert stream(4) == stream(4)
    assert stream(4) != stream(5)
    assert all(b.num_ops == sch.STREAM_BATCH_OPS for b in stream(4))
