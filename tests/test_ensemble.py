"""AND-ensemble and size-aware ensemble behavior and invariants."""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import pytest

from scopeline.ensemble import (
    MODE_SIZE_AWARE,
    EnsembleConfig,
    and_ensemble,
    size_aware_ensemble,
)
from scopeline.errors import ConfigError
from scopeline.geometry import SOURCE_A, SOURCE_B, SOURCE_ENSEMBLE, BoundingBox, ScoredBox, iou

from conftest import (
    oracle_and_ensemble,
    oracle_is_small,
    oracle_nms,
    pixel_grid_iou,
    random_threshold,
    threshold_ties,
)

W, H = 384, 288
CFG = EnsembleConfig()


def sb(x, y, w, h, score, source=SOURCE_A) -> ScoredBox:
    return ScoredBox(BoundingBox(x, y, w, h), score, source)


def small_box(rng: random.Random, limit: int) -> tuple[int, int, int, int]:
    """``(x, y, w, h)`` inside a ``limit`` square, so that IoUs are fractions with small denominators."""
    w, h = rng.randint(1, limit), rng.randint(1, limit)
    return rng.randint(0, limit - w), rng.randint(0, limit - h), w, h


def random_boxes(rng: random.Random, count: int, source: str) -> list[ScoredBox]:
    out = []
    for _ in range(count):
        w = rng.randrange(8, 120)
        h = rng.randrange(8, 120)
        x = rng.randrange(0, W - w)
        y = rng.randrange(0, H - h)
        out.append(ScoredBox(BoundingBox(x, y, w, h), rng.random(), source))
    return out


class TestAndEnsemble:
    def test_overlapping_pair_keeps_higher_score(self):
        a = [sb(10, 10, 50, 50, 0.9, SOURCE_A)]
        b = [sb(15, 15, 50, 50, 0.8, SOURCE_B)]
        out = and_ensemble(a, b, CFG)
        assert [o.box for o in out] == [BoundingBox(10, 10, 50, 50)]
        assert out[0].score == 0.9
        assert out[0].source == SOURCE_ENSEMBLE

    def test_disjoint_pair_ignored(self):
        a = [sb(0, 0, 10, 10, 0.9)]
        b = [sb(200, 200, 10, 10, 0.8, SOURCE_B)]
        assert and_ensemble(a, b, CFG) == []

    def test_empty_side_yields_nothing(self):
        b = [sb(5, 5, 20, 20, 0.9, SOURCE_B)]
        assert and_ensemble([], b, CFG) == []
        assert and_ensemble(b, [], CFG) == []

    def test_threshold_is_strict(self):
        # Construct IoU exactly 0.1: 20x20 boxes overlapping in a 200/2000...
        # inter=w*20 with union 800-inter; inter/(800-inter)=0.1 -> inter=72.72,
        # not integral, so use a pair with a rational hit: 10x11 overlap on
        # 2x10 region: inter 20, union 220-20=200 -> exactly 0.1.
        a = [sb(0, 0, 10, 11, 0.9)]
        b = [sb(8, 1, 10, 11, 0.8, SOURCE_B)]
        assert iou(a[0].box, b[0].box) == 0.1
        assert and_ensemble(a, b, CFG) == []

    def test_iou_of_one_third_lies_above_its_decimal(self):
        a = [sb(0, 0, 2, 1, 0.9)]
        b = [sb(1, 0, 2, 1, 0.8, SOURCE_B)]
        assert pixel_grid_iou(a[0].box, b[0].box) == Fraction(1, 3)
        out = and_ensemble(a, b, EnsembleConfig(iou_threshold=0.3333333333333333))
        assert [(o.box, o.score) for o in out] == [(a[0].box, 0.9)]

    def test_agrees_with_the_exact_oracle(self):
        rng = random.Random(13)
        ties = Counter()
        for _ in range(600):
            a = [sb(*small_box(rng, 4), rng.choice((0.4, 0.9))) for _ in range(rng.randrange(0, 4))]
            b = [sb(*small_box(rng, 4), rng.choice((0.4, 0.8)), SOURCE_B) for _ in range(rng.randrange(0, 4))]
            ratios = [pixel_grid_iou(x.box, y.box) for x in a for y in b]
            threshold = random_threshold(rng, ratios)
            ties += threshold_ties(ratios, threshold)
            assert and_ensemble(a, b, EnsembleConfig(iou_threshold=threshold)) == oracle_and_ensemble(a, b, threshold)
        assert len(ties) == 3, ties  # every kind of tie occurred

    def test_never_fabricates_geometry(self):
        rng = random.Random(3)
        for _ in range(200):
            a = random_boxes(rng, rng.randrange(0, 6), SOURCE_A)
            b = random_boxes(rng, rng.randrange(0, 6), SOURCE_B)
            out = and_ensemble(a, b, CFG)
            input_geoms = {x.box for x in a} | {x.box for x in b}
            assert all(o.box in input_geoms for o in out)
            assert all(o.source == SOURCE_ENSEMBLE for o in out)

    def test_output_bounded_by_confirmed_pairs(self):
        rng = random.Random(5)
        for _ in range(200):
            a = random_boxes(rng, rng.randrange(0, 6), SOURCE_A)
            b = random_boxes(rng, rng.randrange(0, 6), SOURCE_B)
            out = and_ensemble(a, b, CFG)
            pairs = sum(
                1 for x in a for y in b if iou(x.box, y.box) > CFG.iou_threshold
            )
            assert len(out) <= pairs

    def test_symmetric_in_geometry(self):
        rng = random.Random(7)
        for _ in range(200):
            a = random_boxes(rng, rng.randrange(0, 6), SOURCE_A)
            b = random_boxes(rng, rng.randrange(0, 6), SOURCE_B)
            forward = {o.box for o in and_ensemble(a, b, CFG)}
            backward = {o.box for o in and_ensemble(b, a, CFG)}
            assert forward == backward

    def test_monotone_under_input_removal(self):
        # Removing an input box can only shrink the confirmed pool; the
        # emitted output always stays inside the (shrunken) pool. The raw
        # post-NMS set is not monotone: dropping an NMS winner legitimately
        # promotes the overlapping partner it had suppressed.
        def confirmed_pool(a, b):
            pool = {x.box for x in a if any(iou(x.box, y.box) > CFG.iou_threshold for y in b)}
            pool |= {y.box for y in b if any(iou(y.box, x.box) > CFG.iou_threshold for x in a)}
            return pool

        rng = random.Random(9)
        for _ in range(100):
            a = random_boxes(rng, rng.randrange(1, 6), SOURCE_A)
            b = random_boxes(rng, rng.randrange(1, 6), SOURCE_B)
            full_pool = confirmed_pool(a, b)
            assert {o.box for o in and_ensemble(a, b, CFG)} <= full_pool
            for i in range(len(a)):
                reduced_a = a[:i] + a[i + 1 :]
                reduced_pool = confirmed_pool(reduced_a, b)
                assert reduced_pool <= full_pool
                assert {o.box for o in and_ensemble(reduced_a, b, CFG)} <= reduced_pool
            for i in range(len(b)):
                reduced_b = b[:i] + b[i + 1 :]
                reduced_pool = confirmed_pool(a, reduced_b)
                assert reduced_pool <= full_pool
                assert {o.box for o in and_ensemble(a, reduced_b, CFG)} <= reduced_pool


class TestSizeAwareEnsemble:
    def test_small_box_bypasses_b(self):
        a = [sb(0, 0, 20, 20, 0.9)]
        calls = []

        def b_supplier():
            calls.append(1)
            return []

        out, invoked = size_aware_ensemble(a, b_supplier, W, H, CFG)
        assert not invoked and not calls
        assert [o.box for o in out] == [BoundingBox(0, 0, 20, 20)]
        assert out[0].source == SOURCE_ENSEMBLE

    def test_empty_a_skips_b(self):
        out, invoked = size_aware_ensemble([], lambda: [sb(0, 0, 50, 50, 0.5)], W, H, CFG)
        assert out == [] and invoked is False

    def test_large_box_with_disjoint_b_discarded(self):
        a = [sb(0, 0, 100, 100, 0.9)]
        out, invoked = size_aware_ensemble(
            a, lambda: [sb(250, 200, 40, 40, 0.8, SOURCE_B)], W, H, CFG
        )
        assert invoked is True
        assert out == []

    def test_mixed_small_and_large(self):
        small = sb(0, 0, 20, 20, 0.6)
        large = sb(100, 100, 120, 120, 0.9)
        b = [sb(105, 105, 120, 120, 0.8, SOURCE_B)]
        out, invoked = size_aware_ensemble([small, large], lambda: b, W, H, CFG)
        assert invoked is True
        assert {o.box for o in out} == {small.box, large.box}

    def test_threshold_to_zero_degenerates_to_and(self):
        rng = random.Random(21)
        tiny = EnsembleConfig(
            iou_threshold=0.1, mode=MODE_SIZE_AWARE, short_edge_ratio_threshold=1e-9
        )
        for _ in range(100):
            a = random_boxes(rng, rng.randrange(0, 5), SOURCE_A)
            b = random_boxes(rng, rng.randrange(0, 5), SOURCE_B)
            out, invoked = size_aware_ensemble(a, lambda: b, W, H, tiny)
            assert invoked is (len(a) > 0)
            assert {o.box for o in out} == {o.box for o in and_ensemble(a, b, CFG)}

    def test_all_small_never_invokes_b(self):
        rng = random.Random(23)
        cutoff = int(0.1 * min(W, H))  # short edges strictly below ratio 0.1
        for _ in range(100):
            a = []
            for _ in range(rng.randrange(1, 6)):
                w = rng.randrange(1, cutoff)
                h = rng.randrange(1, cutoff)
                a.append(sb(rng.randrange(0, W - w), rng.randrange(0, H - h), w, h, rng.random()))

            def boom():
                raise AssertionError("detector B must not run")

            out, invoked = size_aware_ensemble(a, boom, W, H, CFG)
            assert invoked is False
            # Every small box survives unless NMS removed an overlap.
            assert {o.box for o in out} <= {x.box for x in a}

    @pytest.mark.parametrize(
        "box, image, threshold, large",
        [
            ((0, 0, 30, 20), (384, 288), 0.0694, True),  # ratio 20/288 = 0.06944...: the short edges, not 30 or 384
            ((0, 0, 30, 20), (384, 288), 0.0695, False),
            ((0, 0, 384, 288), (384, 288), 1.0, True),  # the full extent, ratio 1
            ((0, 0, 29, 29), (288, 288), 0.1, True),  # 29/288 lies above 0.1
            ((0, 0, 28, 28), (288, 288), 0.1, False),  # 28/288 lies below it
            ((0, 0, 12, 12), (120, 160), 0.1, True),  # exactly 1/10 stays large, though the double 0.1 is above it
            ((0, 0, 5, 5), (7, 7), 0.7142857142857143, False),  # 5/7 lies below the decimal 5 / 7 prints as
        ],
    )
    def test_short_edge_ratio_decides_whether_b_runs(self, box, image, threshold, large):
        cfg = EnsembleConfig(mode=MODE_SIZE_AWARE, short_edge_ratio_threshold=threshold)
        calls = []
        out, invoked = size_aware_ensemble([sb(*box, 0.9)], lambda: calls.append(1) or [], *image, cfg)
        assert invoked is large and calls == [1] * large
        assert [o.box for o in out] == ([] if large else [BoundingBox(*box)])

    @pytest.mark.parametrize(
        "box, image",
        [((0, 0, 1, 1), (0, 288)), ((0, 0, 1, 1), (288, 0)), ((380, 0, 10, 10), (384, 288)), ((0, 280, 10, 10), (384, 288))],
        ids=["zero-width-image", "zero-height-image", "past-the-right-edge", "past-the-bottom-edge"],
    )
    def test_box_outside_the_image_is_rejected(self, box, image):
        with pytest.raises(ValueError, match="exceeds image extent"):
            size_aware_ensemble([sb(*box, 0.9)], lambda: [], *image, CFG)

    def test_agrees_with_the_exact_oracle(self):
        rng = random.Random(17)
        ties = Counter()
        for _ in range(300):
            image_w, image_h = rng.randint(1, 16), rng.randint(1, 16)
            a = []
            for _ in range(rng.randrange(0, 4)):
                w, h = rng.randint(1, image_w), rng.randint(1, image_h)
                a.append(sb(rng.randint(0, image_w - w), rng.randint(0, image_h - h), w, h, rng.choice((0.4, 0.9))))
            b = [sb(*small_box(rng, min(image_w, image_h)), 0.8, SOURCE_B) for _ in range(rng.randrange(0, 3))]
            ratios = [Fraction(min(x.box.w, x.box.h), min(image_w, image_h)) for x in a]
            cfg = EnsembleConfig(random_threshold(rng), MODE_SIZE_AWARE, random_threshold(rng, ratios))
            ties += threshold_ties(ratios, cfg.short_edge_ratio_threshold)
            small = [x for x in a if oracle_is_small(x.box, image_w, image_h, cfg.short_edge_ratio_threshold)]
            large = [x for x in a if x not in small]
            fused = [replace(x, source=SOURCE_ENSEMBLE) for x in small]
            fused += oracle_and_ensemble(large, b, cfg.iou_threshold)
            out, invoked = size_aware_ensemble(a, lambda: b, image_w, image_h, cfg)
            assert invoked is bool(large)
            assert out == oracle_nms(fused, cfg.iou_threshold)
        assert len(ties) == 3, ties  # every kind of tie occurred

    def test_b_supplier_failure_propagates(self):
        a = [sb(0, 0, 100, 100, 0.9)]

        def broken():
            raise RuntimeError("backend fell over")

        with pytest.raises(RuntimeError, match="fell over"):
            size_aware_ensemble(a, broken, W, H, CFG)


class TestEnsembleConfig:
    def test_defaults_match_operating_point(self):
        cfg = EnsembleConfig()
        assert cfg.iou_threshold == 0.1
        assert cfg.short_edge_ratio_threshold == 0.1

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"iou_threshold": -0.1},
            {"iou_threshold": 1.1},
            {"mode": "voting"},
            {"short_edge_ratio_threshold": 0.0},
            {"short_edge_ratio_threshold": 1.5},
        ],
    )
    def test_invalid_config_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            EnsembleConfig(**kwargs)
