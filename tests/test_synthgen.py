import dataclasses

import numpy as np
import pytest

from creditnet.cli import main
from creditnet.ingest import write_sample_csv
from creditnet.synthgen import DegenerateDensity, GenConfig, generate
from oracles import sequential_links


def test_generate_seed_changes_output():
    s1, _ = generate(GenConfig(seed=1))
    s2, _ = generate(GenConfig(seed=2))
    assert not np.array_equal(s1.network.weights, s2.network.weights)


def test_generate_keys_seed_mod_2_64(tmp_path):
    """A negative seed names the stream of its residue mod 2**64, as the
    null-model ensemble's seed does, and `synth --seed -1` parses as one."""
    s1, t1 = generate(GenConfig(seed=-1))
    s2, t2 = generate(GenConfig(seed=2**64 - 1))
    np.testing.assert_array_equal(s1.network.weights, s2.network.weights)
    for cols1, cols2 in ((s1.firm_columns, s2.firm_columns),
                         (s1.bank_columns, s2.bank_columns)):
        for name in cols1:
            np.testing.assert_array_equal(cols1[name], cols2[name])
    assert t1.z == t2.z
    assert main(["synth", "--seed", "-1", "--out", str(tmp_path / "cli")]) == 0
    for name, path in write_sample_csv(s2, str(tmp_path / "lib")).items():
        with open(path, "rb") as fh:
            assert (tmp_path / "cli" / f"{name}.csv").read_bytes() == \
                fh.read(), name


def test_generate_density_near_target():
    densities = [generate(GenConfig(seed=s, target_density=0.15))[0]
                 .network.density for s in range(10)]
    assert abs(np.mean(densities) - 0.15) < 0.03


def test_generate_shapes_and_truth():
    cfg = GenConfig(n_firms=30, n_banks=12, seed=3)
    sample, truth = generate(cfg)
    assert sample.network.n_firms == 30
    assert sample.network.n_banks == 12
    assert truth.realized_links == sample.network.n_links
    assert truth.realized_density == sample.network.density
    assert truth.config == cfg
    assert truth.z > 0
    payload = truth.to_json()
    assert payload["config"]["seed"] == 3


def test_attachment_boost_adds_links_to_connected_firms():
    extra_links = 0
    for seed in range(8):
        base, _ = generate(GenConfig(seed=seed, target_density=0.2))
        boosted, _ = generate(GenConfig(seed=seed, target_density=0.2,
                                        attachment_boost=1.5))
        a0 = base.network.weights > 0
        a1 = boosted.network.weights > 0
        # same uniforms, never-decreasing log-odds: links only appear
        assert np.all(a1[a0])
        # new links go to firms that already formed one in the row scan
        new = a1 & ~a0
        firsts = np.argmax(a1, axis=1)
        for i, j in zip(*np.nonzero(new)):
            assert j > firsts[i]
        extra_links += int(new.sum())
    assert extra_links > 0


@pytest.mark.parametrize("boost", [0.0, 0.7, 1.3])
def test_links_match_sequential_oracle(boost):
    cfg = GenConfig(n_firms=113, n_banks=61, seed=9, target_density=0.1,
                    attachment_boost=boost)
    sample, truth = generate(cfg)
    # replay the generator's draws up to the uniforms
    rng = np.random.Generator(np.random.Philox(key=cfg.seed))
    s_fit = rng.lognormal(cfg.firm_size_mu, cfg.firm_size_sigma, cfg.n_firms)
    t_fit = rng.lognormal(cfg.bank_size_mu, cfg.bank_size_sigma, cfg.n_banks)
    st = truth.z * np.outer(s_fit, t_fit)
    uniforms = rng.random((cfg.n_firms, cfg.n_banks))
    expected = sequential_links(st / (1.0 + st), uniforms, boost)
    np.testing.assert_array_equal(sample.network.weights > 0, expected)


def test_fragmentation_penalty_shrinks_multibank_loans():
    cfg = dict(seed=4, target_density=0.25, noise_sd=0.0)
    flat, _ = generate(GenConfig(**cfg))
    penal, _ = generate(GenConfig(**cfg, fragmentation_penalty=-1.0))
    k = flat.network.degrees[0]
    same_topology = np.array_equal(flat.network.weights > 0,
                                   penal.network.weights > 0)
    assert same_topology  # the penalty only rescales weights
    multi = k >= 2
    ratio = np.where(flat.network.weights > 0,
                     penal.network.weights / np.maximum(flat.network.weights, 1e-300),
                     np.nan)
    # loans of a k-bank firm shrink by the factor k^-1
    for i in np.flatnonzero(multi):
        row = ratio[i][~np.isnan(ratio[i])]
        np.testing.assert_allclose(row, 1.0 / k[i], rtol=1e-10)


def test_balance_strength_tracks_network_strength():
    sample, _ = generate(GenConfig(seed=6, balance_noise=0.01))
    s_net = sample.network.weights.sum(axis=1)
    s_bal = sample.firm_columns["balance_strength"]
    linked = s_net > 0
    ratios = s_bal[linked] / s_net[linked]
    assert np.all((ratios > 0.9) & (ratios < 1.1))


def test_config_validation():
    with pytest.raises(ValueError):
        GenConfig(target_density=0.0)
    with pytest.raises(ValueError):
        GenConfig(firm_size_sigma=-1.0)
    with pytest.raises(ValueError):
        GenConfig(noise_sd=-0.1)


@pytest.mark.parametrize("side, size", [("firms", 0), ("firms", -3),
                                        ("banks", 0)])
def test_config_rejects_an_empty_side(tmp_path, capsys, side, size):
    with pytest.raises(ValueError, match=rf"n_{side} \({size}\)"):
        GenConfig(**{f"n_{side}": size})
    out = tmp_path / "s"
    assert main(["synth", "--out", str(out), f"--{side}", str(size)]) == 1
    assert f"error: ValueError: n_{side} ({size}) must be >= 1\n" == \
        capsys.readouterr().err
    assert not out.exists()


def test_degenerate_draw_is_refused(tmp_path, capsys):
    """A draw with no link or every link is no network to study: a 1 x 1
    sample realizes one or the other at every seed, and `synth` writes
    nothing."""
    for seed, links in ((0, 1), (1, 0)):
        with pytest.raises(DegenerateDensity,
                           match=rf"^realized link count {links}$"):
            generate(GenConfig(n_firms=1, n_banks=1, seed=seed))
    out = tmp_path / "s"
    assert main(["synth", "--firms", "1", "--banks", "1", "--out",
                 str(out)]) == 1
    assert capsys.readouterr().err == \
        "error: DegenerateDensity: realized link count 1\n"
    assert not out.exists()


def test_config_is_frozen():
    cfg = GenConfig()
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.seed = 99
