"""The request universe of the sasynthd benchmark.

Every request any seed can send is built here from pool.txt (the unique conv
layers of AlexNet, VGG16 and GoogLeNet, as printed by `perfbench_tool pool`),
so goldens.txt can hold a digest for each of them.
"""

import hashlib
import os

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDENS = os.path.join(HERE, "goldens.txt")

# cold-layers: every pool layer on each of these (device, dtype) targets.
COLD_TARGETS = [
    ("arria10_gt1150", "float32"),
    ("arria10_gt1150", "fixed8_16"),
    ("vc709", "float32"),
    ("ku060", "fixed8_16"),
]
# hot-bursts and mixed-open: the warm set every fill puts in the DesignCache.
WARM_TARGETS = COLD_TARGETS[:2]
# mixed-open DesignCache misses that the SweepCache speeds up: a warm-set
# layer with one option changed, the variants alternating over the layers.
SWEEP_VARIANTS = ["option top_k 8", "option min_util 0.7"]
# mixed-open true cold misses: a device the warm set does not cover.
NEW_DEVICE = ("vc709", "float32")


def bulk_layer(spec):
    """Misses are sent only for layers with more than 3 input maps. The RGB
    input layers (VGG16 conv1, GoogLeNet conv1) take 0.35-5.4 s of DSE per
    miss: in cold-layers they would take half of every pass, leaving a run
    too few passes to take each request's best latency over; in mixed-open
    they would hold one of the four connections for that long."""
    return int(spec.split(",")[0]) > 3


def layers():
    """[(network, "I,O,R,C,K,stride,groups")] in pool.txt order."""
    with open(os.path.join(HERE, "pool.txt")) as f:
        return [tuple(line.split()) for line in f if line.strip()]


def request(spec, device, dtype, option=None):
    lines = ["sasynth-request v1", "layer " + spec, "device " + device,
             "dtype " + dtype]
    if option:
        lines.append(option)
    lines.append("end")
    return "\n".join(lines) + "\n"


def cold_pool():
    return [request(spec, d, t) for d, t in COLD_TARGETS
            for _, spec in layers() if bulk_layer(spec)]


def warm_set():
    """[(network, target index, request)] of the warm set."""
    return [(net, i, request(spec, d, t))
            for i, (d, t) in enumerate(WARM_TARGETS)
            for net, spec in layers()]


def sweep_pool():
    return [request(spec, d, t, SWEEP_VARIANTS[i % len(SWEEP_VARIANTS)])
            for d, t in WARM_TARGETS
            for i, (_, spec) in enumerate(layers()) if bulk_layer(spec)]


def new_device_pool():
    return [request(spec, *NEW_DEVICE) for _, spec in layers()
            if bulk_layer(spec)]


def universe():
    """Every request any workload can send, each once."""
    seen, out = set(), []
    warm = [r for _, _, r in warm_set()]
    for r in warm + cold_pool() + sweep_pool() + new_device_pool():
        if r not in seen:
            seen.add(r)
            out.append(r)
    return out


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


def load_goldens():
    """{request digest: response digest} from goldens.txt."""
    if not os.path.exists(GOLDENS):
        return {}
    with open(GOLDENS) as f:
        return dict(line.split() for line in f if line.strip())
