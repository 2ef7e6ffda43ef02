"""Random instance generation: determinism, densities, presets."""

import pytest

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
