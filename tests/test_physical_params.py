import dataclasses
import json
import math
from dataclasses import asdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dickesim.errors import ConfigError, DomainError
from dickesim.physical_params import (
    SPON_COUPLING_CONSTANT,
    PhysicalConfig,
    derive_strengths,
    optimal_strength,
    squeezing_with_decay,
)

from closed_forms import derived_strengths, measurement_strength_photon_form
from conftest import consistent_config

# the first word of each note derive_strengths can emit, in emission order
NOTES = ("|delta|/gamma", "Fresnel", "N_a", "photon", "C", "spontaneous-emission")


@st.composite
def lab_configs(draw) -> tuple[PhysicalConfig, str | None]:
    """A config from the benchmark's laboratory ranges (N_a = density*area*length),
    or one with a value moved out of them so that the note it names trips."""
    note = draw(st.sampled_from((None, *NOTES)))

    def uniform(lo: float, hi: float) -> float:
        return draw(st.floats(lo, hi))

    area = uniform(1e-3, 1e-2) if note == "Fresnel" else uniform(2e-8, 1e-7)
    length = uniform(5e-3, 2e-2)
    n_atoms = draw(st.integers(1_000_000, 9_999_999))
    gamma = 2 * math.pi * 5.2e6
    delta = 2 * math.pi * (uniform(1e6, 5e7) if note == "|delta|/gamma" else uniform(0.5e9, 2e9))
    wavelength = uniform(7.8e-7, 8.6e-7)
    density = n_atoms / (area * length) * (uniform(1.1, 10.0) if note == "N_a" else 1.0)
    chi_sq_integral = uniform(1e15, 1e17) if note == "C" else uniform(1e11, 1e13)
    n_ph = uniform(1e11, 1e13) if note == "photon" else uniform(1e7, 1e9)
    if note == "spontaneous-emission":
        # the pulse energy at which the two forms of C agree, times a ratio squared
        ratio = uniform(3.0, 10.0) ** draw(st.sampled_from((-1, 1)))
        chi_sq_integral = (16.0 * math.pi**2 / 3.0) * gamma * n_ph * wavelength**2 / area * ratio**2
    config = PhysicalConfig(gamma, delta, wavelength, area, length, density, n_atoms, chi_sq_integral, n_ph)
    return config, note


class TestPhysicalConfig:
    def test_from_json_roundtrip(self, lab_config):
        text = json.dumps(
            {
                "gamma": lab_config.gamma,
                "delta": lab_config.delta,
                "wavelength": lab_config.wavelength,
                "area": lab_config.area,
                "length": lab_config.length,
                "density": lab_config.density,
                "N_a": lab_config.N_a,
                "chi_sq_integral": lab_config.chi_sq_integral,
                "N_ph": lab_config.N_ph,
            }
        )
        assert PhysicalConfig.from_json(text) == lab_config

    @pytest.mark.parametrize("n_a", [2.7, 20000.5, math.inf, math.nan])
    def test_non_integral_atom_count_rejected(self, lab_config, n_a):
        with pytest.raises(ConfigError, match="N_a must be an integer"):
            PhysicalConfig(**dict(asdict(lab_config), N_a=n_a))
        text = json.dumps(dict(asdict(lab_config), N_a=n_a))
        with pytest.raises(ConfigError, match="N_a must be an integer"):
            PhysicalConfig.from_json(text)

    def test_integral_float_atom_count_accepted(self, lab_config):
        config = PhysicalConfig.from_json(json.dumps(dict(asdict(lab_config), N_a=float(lab_config.N_a))))
        assert config == lab_config
        assert type(config.N_a) is int

    def test_fields_are_stored_as_float_and_int(self, lab_config):
        config = PhysicalConfig(**dict(asdict(lab_config), gamma=32672563, N_a=float(lab_config.N_a)))
        assert [type(getattr(config, f.name)) for f in dataclasses.fields(config)] == [float] * 6 + [int, float, float]
        assert config.gamma == 32672563.0 and config.N_a == lab_config.N_a

    @pytest.mark.parametrize("name,value", [("gamma", "3e7"), ("N_a", True), ("N_a", "5000000"), ("delta", None), ("N_ph", [1])])
    def test_non_number_value_rejected(self, lab_config, name, value):
        with pytest.raises(ConfigError, match=f"{name} must be a number"):
            PhysicalConfig(**dict(asdict(lab_config), **{name: value}))
        with pytest.raises(ConfigError, match=f"{name} must be a number"):
            PhysicalConfig.from_json(json.dumps(dict(asdict(lab_config), **{name: value})))

    @pytest.mark.parametrize(
        "name,value",
        [("gamma", math.inf), ("gamma", math.nan), ("delta", -math.inf), ("density", math.inf), ("chi_sq_integral", math.inf), ("N_ph", math.inf)],
    )
    def test_non_finite_value_rejected(self, lab_config, name, value):
        with pytest.raises(ConfigError, match=f"{name} must be finite"):
            PhysicalConfig(**dict(asdict(lab_config), **{name: value}))
        with pytest.raises(ConfigError, match=f"{name} must be finite"):
            PhysicalConfig.from_json(json.dumps(dict(asdict(lab_config), **{name: value})))

    def test_value_beyond_the_float_range_rejected(self, lab_config):
        text = json.dumps(asdict(lab_config)).replace(repr(lab_config.gamma), "1" + "0" * 400)
        with pytest.raises(ConfigError, match="too large to convert to float"):
            PhysicalConfig.from_json(text)
        for name in ("gamma", "N_a"):
            with pytest.raises(ConfigError, match="too large to convert to float"):
                PhysicalConfig(**dict(asdict(lab_config), **{name: 10**400}))

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            PhysicalConfig.from_json('{"gamma": 1, "bogus": 2}')

    def test_missing_key_rejected(self):
        with pytest.raises(ConfigError):
            PhysicalConfig.from_json('{"gamma": 1}')

    def test_invalid_json_rejected(self):
        with pytest.raises(ConfigError):
            PhysicalConfig.from_json("{not json")

    def test_non_object_rejected(self):
        with pytest.raises(ConfigError):
            PhysicalConfig.from_json("[1, 2, 3]")

    def test_zero_detuning_rejected(self):
        with pytest.raises(ConfigError):
            consistent_config(delta=0.0)

    def test_negative_area_rejected(self):
        with pytest.raises(ConfigError):
            consistent_config(area=-1e-8)

    def test_advisory_warnings_trigger(self):
        config = consistent_config(delta=2 * math.pi * 10e6)  # |delta|/gamma < 10
        notes = derive_strengths(config).warnings
        assert any("far-off-resonance" in n for n in notes)
        big_area = consistent_config(area=1e-3)
        assert any("Fresnel" in n for n in derive_strengths(big_area).warnings)


class TestDerivedStrengths:
    @given(lab_configs())
    @settings(max_examples=300, deadline=None)
    def test_every_field_equals_its_reference(self, drawn):
        config, note = drawn
        strengths = derive_strengths(config)
        assert strengths == derived_strengths(config)
        if note is not None:
            assert any(n.split()[0] == note for n in strengths.warnings)

    def test_c_spon_formula(self, lab_config):
        expected = math.sqrt(lab_config.gamma * lab_config.chi_sq_integral) / abs(
            lab_config.delta
        )
        assert derive_strengths(lab_config).C_spon == pytest.approx(expected, rel=1e-12)

    def test_strength_forms_agree_for_consistent_config(self, lab_config):
        s = derive_strengths(lab_config)
        assert s.C == pytest.approx(s.C_photon_form, rel=1e-9)

    def test_optical_depths(self, lab_config):
        s = derive_strengths(lab_config)
        d_res, eta, c_bound = s.d_res, s.eta, s.C_bound
        expected_d = lab_config.density * lab_config.wavelength**2 * lab_config.length
        assert d_res == pytest.approx(expected_d, rel=1e-12)
        assert c_bound == pytest.approx(math.sqrt(d_res / lab_config.N_a), rel=1e-12)
        assert eta == pytest.approx(
            (d_res / lab_config.N_a)
            * (lab_config.gamma / lab_config.delta) ** 2
            * lab_config.N_ph,
            rel=1e-12,
        )

    def test_consistent_config_has_no_notes(self, lab_config):
        s = derive_strengths(lab_config)
        assert s.warnings == ()
        assert s.C_photon_form == measurement_strength_photon_form(lab_config)
        assert list(asdict(s)) == ["C", "C_spon", "d_res", "eta", "C_bound", "C_photon_form", "warnings"]

    def test_notes_follow_the_config_notes_in_order(self):
        # near resonance, a wide beam, a mismatched density and a strong pulse
        # trip all three config notes and all three regime notes
        config = dataclasses.replace(
            consistent_config(delta=2 * math.pi * 10e6, area=1e-3), chi_sq_integral=1e25, density=1e17
        )
        notes = derive_strengths(config).warnings
        assert [n.split()[0] for n in notes] == list(NOTES)

    def test_pinned_constant_identity(self, lab_config):
        s = derive_strengths(lab_config)
        assert s.C**2 * lab_config.N_a / s.d_res == pytest.approx(
            SPON_COUPLING_CONSTANT * s.C_spon**2, rel=1e-9
        )

    def test_constant_value(self):
        assert SPON_COUPLING_CONSTANT == pytest.approx(3.0 / (16.0 * math.pi**2))


class TestSqueezingWithDecay:
    def test_value_at_known_point(self):
        # N_a=200, d_res=100, C=0.5: sqrt(2)/(10 * 0.5 * e^{-1/2})
        expected = math.sqrt(2.0) / (10.0 * 0.5 * math.exp(-0.5))
        assert squeezing_with_decay(0.5, 200, 100.0) == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(0.4663, rel=1e-3)

    def test_diverges_at_large_strength(self):
        assert squeezing_with_decay(5.0, 200, 100.0) > squeezing_with_decay(1.0, 200, 100.0)

    def test_deeper_medium_squeezes_harder(self):
        assert squeezing_with_decay(0.5, 200, 200.0) < squeezing_with_decay(0.5, 200, 100.0)

    def test_closed_form_below_regime(self):
        # C = 0.01 < 1/sqrt(S) = 0.1: evaluated as written, and the suite fails on any warning
        expected = math.sqrt(2.0) / (10.0 * 0.01 * math.exp(-0.01**2 * 200 / 100.0))
        assert squeezing_with_decay(0.01, 200, 100.0) == pytest.approx(expected, rel=1e-12)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            squeezing_with_decay(0.0, 200, 100.0)
        with pytest.raises(DomainError):
            squeezing_with_decay(1.0, 200, -5.0)

    @pytest.mark.parametrize("d_res", [math.inf, math.nan])
    def test_non_finite_depth_rejected(self, d_res):
        with pytest.raises(DomainError, match="0 < d_res < inf"):
            squeezing_with_decay(1.0, 200, d_res)
        with pytest.raises(DomainError, match="0 < d_res < inf"):
            optimal_strength(200, d_res)

    def test_atom_count_and_depth_are_separate_rules(self):
        # each message names the value that broke its rule
        for call in (lambda: squeezing_with_decay(1.0, 0, 1.0), lambda: optimal_strength(0, 1.0)):
            with pytest.raises(DomainError, match="^need at least one atom, got 0$"):
                call()
        for call in (lambda: squeezing_with_decay(1.0, 2, -1.0), lambda: optimal_strength(2, -1.0)):
            with pytest.raises(DomainError, match=r"^need 0 < d_res < inf, got d_res = -1.0$"):
                call()

    def test_subnormal_strength_overflows_the_quotient(self):
        # e^(C^2 N_a / d_res) = 1.0 at C = 1e-320; sqrt(2) / (sqrt(S) C) is what exceeds the double range
        assert squeezing_with_decay(1e-320, 2, 1.0) == math.inf
        assert squeezing_with_decay(1e-300, 2, 1.0) == pytest.approx(math.sqrt(2.0) * 1e300, rel=1e-15)


class TestOptimalStrength:
    @pytest.mark.parametrize(
        "n_atoms,d_res", [(200, 100.0), (2000, 100.0), (200, 1000.0)]
    )
    def test_closed_forms(self, n_atoms, d_res):
        c_opt, xi_min = optimal_strength(n_atoms, d_res)
        assert c_opt == pytest.approx(math.sqrt(d_res / (2.0 * n_atoms)), rel=1e-12)
        assert xi_min == pytest.approx(2.0 * math.sqrt(math.e) / math.sqrt(d_res), rel=1e-12)

    def test_mean_spin_reduction_at_optimum(self):
        # C_spon^2 = C_opt^2 N_a / d_res = 1/2 at the optimum
        c_opt, _ = optimal_strength(200, 100.0)
        assert c_opt**2 * 200 / 100.0 == pytest.approx(0.5, rel=1e-12)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            optimal_strength(0, 100.0)
        with pytest.raises(DomainError):
            optimal_strength(200, 0.0)
