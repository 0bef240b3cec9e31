"""The pool worker replays schedules with the codec's own XOR loop."""

import numpy as np

from repro.core import TornadoCodec
from repro.graphs import tornado_catalog_graph
from repro.serve.worker import decode_jobs


def test_decode_jobs_returns_exactly_the_codecs_bytes():
    graph = tornado_catalog_graph(3)
    codec = TornadoCodec(graph, block_size=16)
    rng = np.random.default_rng(31)
    jobs, want, steps_shipped = [], [], 0
    for stripes in (3, 1, 4):  # one job per object
        job, parts = [], []
        for _ in range(stripes):
            data = rng.integers(0, 256, (graph.num_data, 16), dtype=np.uint8)
            blocks = codec.encode_blocks(data)
            present = np.ones(graph.num_nodes, dtype=bool)
            lost = rng.choice(graph.num_nodes, rng.integers(0, 5), replace=False)
            present[lost] = False
            blocks[lost] = 0xFF  # absent rows must not be read
            length = int(rng.integers(1, codec.stripe_capacity + 1))
            steps = codec.schedule(present).steps
            steps_shipped += len(steps)
            job.append(
                {
                    "blocks": blocks.tobytes(),
                    "present": present.tobytes(),
                    "steps": steps,
                    "length": length,
                }
            )
            parts.append(
                codec.decode_blocks(blocks, present).tobytes()[:length]
            )
        jobs.append(job)
        want.append(b"".join(parts))

    result = decode_jobs(
        {
            "members": [tuple(m) for m in graph.constraint_members()],
            "data_nodes": list(graph.data_nodes),
            "num_nodes": graph.num_nodes,
            "block_size": 16,
            "jobs": jobs,
        }
    )

    assert result["payloads"] == want
    counters = result["metrics"]["counters"]
    assert counters["serve.worker.stripes_decoded"] == 8
    assert steps_shipped > 0
    assert counters["serve.worker.xor_steps"] == steps_shipped
