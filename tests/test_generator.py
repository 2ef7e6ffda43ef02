"""Random instance generation: determinism, densities, presets, draws."""

import hashlib
import random

import pytest

from maxhrt import draws
from maxhrt.generator import GeneratorConfig, generate, sfas_like
from maxhrt.instance_io import serialize_instance


def test_benchmark_shape():
    config = sfas_like(300, 0.85, seed=1)
    assert (config.n2, config.total_posts, config.list_length) == (21, 300, 5)
    instance = generate(config)
    assert instance.n1 == 300 and instance.n2 == 21
    assert sum(h.capacity for h in instance.hospitals) == 300
    for plist in instance.residents:
        assert plist.is_strict()
        assert len(plist) == 5


def test_sfas_like_n2_formula():
    assert sfas_like(200, 0.85, 0).n2 == 14
    assert sfas_like(300, 0.85, 0).n2 == 21
    assert sfas_like(100, 0.85, 0).n2 == 7


def test_sfas_like_rejects_tiny():
    with pytest.raises(ValueError):
        sfas_like(14, 0.5, 0)


@pytest.mark.parametrize(
    "args, message",
    [
        pytest.param((0, 1, 1, 1, 0.0, 0.0), "n1 and n2 must be at least 1", id="counts"),
        pytest.param((2, 1, -1, 1, 0.0, 0.0), "total posts must be non-negative", id="posts"),
        pytest.param((2, 2, 2, 3, 0.0, 0.0), "list length 3 must be in 0..2", id="list-length"),
        pytest.param((2, 2, 2, 1, 0.0, 1.5), "tie density 1.5 outside [0, 1]", id="density"),
    ],
)
def test_config_rejects_bad_values(args, message):
    with pytest.raises(ValueError) as info:
        GeneratorConfig(*args, seed=0)
    assert str(info.value) == message


def test_density_one_single_tie_per_list():
    config = GeneratorConfig(40, 5, 40, 4, 0.0, 1.0, seed=9)
    instance = generate(config)
    for hosp in instance.hospitals:
        if len(hosp.preferences) > 0:
            assert len(hosp.preferences.groups) == 1


def test_density_zero_no_ties():
    config = GeneratorConfig(40, 5, 40, 4, 0.0, 0.0, seed=9)
    instance = generate(config)
    assert all(p.is_strict() for p in instance.residents)
    assert all(h.preferences.is_strict() for h in instance.hospitals)


def test_determinism_byte_identical():
    config = GeneratorConfig(60, 8, 60, 5, 0.2, 0.7, seed=123)
    assert serialize_instance(generate(config)) == serialize_instance(generate(config))


def test_different_seeds_differ():
    a = GeneratorConfig(60, 8, 60, 5, 0.2, 0.7, seed=1)
    b = GeneratorConfig(60, 8, 60, 5, 0.2, 0.7, seed=2)
    assert serialize_instance(generate(a)) != serialize_instance(generate(b))


def test_post_conservation_with_zero_capacity_possible():
    config = GeneratorConfig(30, 10, 7, 3, 0.0, 0.5, seed=4)
    instance = generate(config)
    assert sum(h.capacity for h in instance.hospitals) == 7
    assert any(h.capacity == 0 for h in instance.hospitals)


def test_list_length_validation():
    with pytest.raises(ValueError):
        GeneratorConfig(10, 3, 10, 4, 0.0, 0.0, seed=0)


def _adjacent_tie_fraction(lists):
    tied = total = 0
    for plist in lists:
        rank = plist.ranks()
        entries = plist.entries()
        for a, b in zip(entries, entries[1:]):
            total += 1
            tied += rank[a] == rank[b]
    return tied, total


def test_empirical_tie_rate_matches_density():
    density = 0.3
    config = GeneratorConfig(2500, 60, 2500, 50, density, density, seed=77)
    instance = generate(config)
    tied_r, total_r = _adjacent_tie_fraction(instance.residents)
    tied_h, total_h = _adjacent_tie_fraction(h.preferences for h in instance.hospitals)
    assert total_r + total_h >= 100_000
    rate = (tied_r + tied_h) / (total_r + total_h)
    assert abs(rate - density) < 0.02


# SHA-256 of serialize_instance(generate(config)) for configs that no
# benchmark pool reaches (test_pool_digests pins those), taken before the
# generator drew through its own kernels. Each names the path it covers.
OFF_POOL_DIGESTS = [
    pytest.param(
        sfas_like(1000, 0.85, 0),
        "5582c0e6077bce465e9a515b894dbb8fbc368a8574d270135016b34af222ff02",
        id="n2-above-21",  # random.Random.sample's set branch
    ),
    pytest.param(
        GeneratorConfig(200, 40, 200, 8, 0.2, 0.4, seed=9),
        "0d27c82d8c55ee617201147bec854791e0880b66ffe323aba7ddb0425253acdb",
        id="n2-above-21-long-lists",  # its pool branch, reached by k > 5
    ),
    pytest.param(
        GeneratorConfig(20, 5, 20, 0, 0.3, 0.5, seed=3),
        "9ab762fa664fbe9b717ca4515b7e4608075af40c7d5a768a2c78de8843dfca6c",
        id="list-length-0",
    ),
    pytest.param(
        GeneratorConfig(30, 6, 30, 6, 0.3, 0.5, seed=5),
        "c61b4ed203cf64ceb379514b96dc086a681fea37b4e3ec2a7d6385884e903db8",
        id="list-length-n2",
    ),
    pytest.param(
        GeneratorConfig(40, 8, 40, 5, 1.0, 1.0, seed=2),
        "12039efa74ec7f7862c0b3413dc23cb854095159e20cb5a868600d6a71126857",
        id="density-1-both-sides",
    ),
    pytest.param(
        GeneratorConfig(30, 4, 0, 3, 0.2, 0.6, seed=1),
        "6e5414814512d6f6268ae164e519436a77daa7d1f7629384121780ab11ee1a1a",
        id="posts-0",
    ),
    pytest.param(
        GeneratorConfig(5, 1, 3, 1, 0.0, 0.5, seed=8),
        "6fe7ae5b32a9cc6b62521dac7e876762679e044a37ef979b642b29bfd56c05d5",
        id="one-hospital",
    ),
    pytest.param(
        GeneratorConfig(1000, 70, 1000, 5, 0.3, 0.5, seed=0),
        "02284333a7143deefb8439d37755874eb4f63a9d553b692db7f6d4eb1947efbd",
        id="two-sided-n1-1000",
    ),
]


@pytest.mark.parametrize("config, digest", OFF_POOL_DIGESTS)
def test_off_pool_text_digests(config, digest):
    text = serialize_instance(generate(config))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


@pytest.mark.parametrize("n", range(1, 101))
def test_below_draws_as_randrange(n):
    # The kernel must draw what random.Random.randrange draws and leave the
    # rng in the same state, since the generator's later draws follow it.
    for seed in range(100):
        rng, kernel_rng = random.Random(seed), random.Random(seed)
        assert draws.below(n, kernel_rng.getrandbits) == rng.randrange(n)
        assert kernel_rng.random() == rng.random()


@pytest.mark.parametrize("n", range(1, 22))
def test_sample_draws_as_random_sample(n):
    # Every population of at most 21 takes random.Random.sample's pool
    # branch, whatever k is; the kernel must copy that branch draw for draw.
    for k in range(n + 1):
        for seed in range(100):
            rng, kernel_rng = random.Random(seed), random.Random(seed)
            assert draws.sample(n, k, kernel_rng.getrandbits) == rng.sample(range(1, n + 1), k)
            assert kernel_rng.random() == rng.random()
