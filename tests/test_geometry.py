"""Box geometry against a brute-force pixel-grid oracle."""

from __future__ import annotations

import math
import random
from collections import Counter
from fractions import Fraction

import pytest

from scopeline.geometry import (
    JSON_NUMBER,
    SOURCE_A,
    SOURCE_B,
    BoundingBox,
    ScoredBox,
    box_from_dict,
    box_to_dict,
    compare_iou,
    compare_ratio,
    iou,
    json_field,
    nms,
)

from conftest import decimal, oracle_nms, pixel_grid_iou, random_threshold, threshold_ties


def random_box(rng: random.Random, limit: int = 64) -> BoundingBox:
    x = rng.randrange(0, limit - 1)
    y = rng.randrange(0, limit - 1)
    w = rng.randrange(1, limit - x + 1)
    h = rng.randrange(1, limit - y + 1)
    return BoundingBox(x, y, w, h)


class TestBoundingBox:
    def test_rejects_degenerate_sizes(self):
        with pytest.raises(ValueError):
            BoundingBox(0, 0, 0, 5)
        with pytest.raises(ValueError):
            BoundingBox(0, 0, 5, -1)

    def test_rejects_negative_corner(self):
        with pytest.raises(ValueError):
            BoundingBox(-1, 0, 5, 5)

    def test_within_image(self):
        assert BoundingBox(0, 0, 384, 288).within(384, 288)
        assert not BoundingBox(380, 0, 10, 10).within(384, 288)

    def test_score_bounds(self):
        with pytest.raises(ValueError):
            ScoredBox(BoundingBox(0, 0, 1, 1), 1.5)


class TestIou:
    def test_identical_boxes(self):
        box = BoundingBox(10, 10, 50, 50)
        assert iou(box, box) == 1.0

    def test_disjoint_boxes(self):
        assert iou(BoundingBox(0, 0, 10, 10), BoundingBox(20, 20, 5, 5)) == 0.0

    # iou divides two exact integers, so it equals the correctly rounded
    # value of the exact rational, with no tolerance.
    def test_small_overlap_exact(self):
        assert iou(BoundingBox(0, 0, 2, 2), BoundingBox(1, 1, 2, 2)) == float(Fraction(1, 7))

    def test_offset_overlap_exact(self):
        got = iou(BoundingBox(10, 10, 50, 50), BoundingBox(15, 15, 50, 50))
        assert got == float(Fraction(2025, 2975))
        assert abs(got - 0.6807) < 5e-5

    def test_symmetric(self):
        rng = random.Random(11)
        for _ in range(500):
            a, b = random_box(rng), random_box(rng)
            assert iou(a, b) == iou(b, a)

    def test_matches_pixel_grid_oracle(self):
        rng = random.Random(23)
        for _ in range(2000):
            a, b = random_box(rng), random_box(rng)
            assert iou(a, b) == float(pixel_grid_iou(a, b))


def sign(value: Fraction) -> int:
    return (value > 0) - (value < 0)


class TestThresholdRule:
    @pytest.mark.parametrize(
        "part, whole, threshold, expected",
        [
            (1, 3, 0.3333333333333333, 1),  # 1/3 lies above the decimal, though 1 / 3 is this double
            (5, 7, 0.7142857142857143, -1),  # 5/7 lies below the decimal, though 5 / 7 is this double
            (12, 120, 0.1, 0),  # exactly 1/10, though the double 0.1 lies above 1/10
            (3, 10, 0.3, 0),  # exactly 3/10, though the double 0.3 lies below 3/10
            (1, 10, math.nextafter(0.1, 1.0), -1),
            (0, 5, 0.0, 0),
            (7, 7, 1.0, 0),
        ],
    )
    def test_reads_the_threshold_as_the_decimal_it_prints_as(self, part, whole, threshold, expected):
        assert compare_ratio(part, whole, threshold) == expected

    def test_ratio_agrees_with_fraction_arithmetic(self):
        rng = random.Random(3)
        ties = Counter()
        for _ in range(3000):
            whole = rng.randint(1, 60)
            part = rng.randint(0, whole)
            threshold = random_threshold(rng, [Fraction(part, whole)])
            ties += threshold_ties([Fraction(part, whole)], threshold)
            assert compare_ratio(part, whole, threshold) == sign(Fraction(part, whole) - decimal(threshold))
        assert len(ties) == 3, ties  # every kind of tie occurred

    def test_iou_of_one_third_lies_above_its_decimal(self):
        a, b = BoundingBox(0, 0, 2, 1), BoundingBox(1, 0, 2, 1)
        assert pixel_grid_iou(a, b) == Fraction(1, 3)
        assert iou(a, b) == 0.3333333333333333
        assert compare_iou(a, b, 0.3333333333333333) == compare_iou(b, a, 0.3333333333333333) == 1

    def test_iou_agrees_with_the_pixel_grid_oracle(self):
        rng = random.Random(5)
        ties = Counter()
        for _ in range(2000):
            a, b = random_box(rng, 5), random_box(rng, 5)
            threshold = random_threshold(rng, [pixel_grid_iou(a, b)])
            ties += threshold_ties([pixel_grid_iou(a, b)], threshold)
            assert compare_iou(a, b, threshold) == sign(pixel_grid_iou(a, b) - decimal(threshold))
        assert len(ties) == 3, ties  # every kind of tie occurred


class TestNms:
    def test_single_box(self):
        box = ScoredBox(BoundingBox(1, 1, 5, 5), 0.5)
        assert nms([box], 0.1) == [box]

    def test_suppresses_heavy_overlap(self):
        a = ScoredBox(BoundingBox(10, 10, 50, 50), 0.9, SOURCE_A)
        b = ScoredBox(BoundingBox(15, 15, 50, 50), 0.8, SOURCE_B)
        assert nms([a, b], 0.1) == [a]

    def test_keeps_disjoint(self):
        a = ScoredBox(BoundingBox(0, 0, 10, 10), 0.9)
        b = ScoredBox(BoundingBox(100, 100, 10, 10), 0.1)
        assert nms([a, b], 0.0) == [a, b]

    def test_empty_input(self):
        assert nms([], 0.5) == []

    def test_score_tie_prefers_detector_a(self):
        a = ScoredBox(BoundingBox(10, 10, 50, 50), 0.8, SOURCE_A)
        b = ScoredBox(BoundingBox(12, 12, 50, 50), 0.8, SOURCE_B)
        assert nms([b, a], 0.1) == [a]

    def test_iou_of_one_third_lies_above_its_decimal(self):
        a = ScoredBox(BoundingBox(0, 0, 2, 1), 0.9, SOURCE_A)
        b = ScoredBox(BoundingBox(1, 0, 2, 1), 0.8, SOURCE_B)
        assert nms([a, b], 0.3333333333333333) == [a]

    def test_agrees_with_the_exact_oracle(self):
        rng = random.Random(43)
        ties = Counter()
        for _ in range(300):
            boxes = [
                ScoredBox(random_box(rng, 8), rng.choice((0.3, 0.5, 0.9)), rng.choice((SOURCE_A, SOURCE_B)))
                for _ in range(rng.randrange(0, 7))
            ]
            ratios = [pixel_grid_iou(x.box, y.box) for x in boxes for y in boxes if x is not y]
            threshold = random_threshold(rng, ratios)
            ties += threshold_ties(ratios, threshold)
            assert nms(boxes, threshold) == oracle_nms(boxes, threshold)
        assert len(ties) == 3, ties  # every kind of tie occurred

    def test_threshold_bounds_checked(self):
        with pytest.raises(ValueError):
            nms([], 1.5)

    def test_output_sorted_and_pairwise_separated(self):
        rng = random.Random(37)
        for _ in range(200):
            boxes = [
                ScoredBox(random_box(rng), rng.random(), rng.choice((SOURCE_A, SOURCE_B)))
                for _ in range(rng.randrange(0, 12))
            ]
            threshold = rng.random()
            kept = nms(boxes, threshold)
            scores = [sb.score for sb in kept]
            assert scores == sorted(scores, reverse=True)
            for i in range(len(kept)):
                for j in range(i + 1, len(kept)):
                    assert iou(kept[i].box, kept[j].box) <= threshold

    def test_idempotent(self):
        rng = random.Random(41)
        for _ in range(200):
            boxes = [
                ScoredBox(random_box(rng), rng.random(), rng.choice((SOURCE_A, SOURCE_B)))
                for _ in range(rng.randrange(0, 12))
            ]
            threshold = rng.random()
            once = nms(boxes, threshold)
            assert nms(once, threshold) == once


def test_box_record_keys_come_first_then_the_callers_fields():
    record = box_to_dict(BoundingBox(1, 2, 3, 4), score=0.5, label="polyp")
    assert list(record.items()) == [("x", 1), ("y", 2), ("w", 3), ("h", 4), ("score", 0.5), ("label", "polyp")]
    assert box_from_dict(record) == BoundingBox(1, 2, 3, 4)


@pytest.mark.parametrize("key, value", [("x", 7.9), ("y", 2.0), ("w", True), ("h", "4"), ("x", None)])
def test_box_record_coordinates_must_be_json_integers(key, value):
    with pytest.raises(TypeError, match=f"{key} must be of type int"):
        box_from_dict({**box_to_dict(BoundingBox(1, 2, 3, 4)), key: value})


def test_box_record_without_a_coordinate_raises_key_error():
    with pytest.raises(KeyError):
        box_from_dict({"x": 1, "y": 2, "w": 3})


@pytest.mark.parametrize("value", [0, 7, 0.5, -1e300])
def test_json_number_takes_ints_and_floats(value):
    assert json_field({"score": value}, "score", JSON_NUMBER) is value


@pytest.mark.parametrize("value", [True, False, "0.5", None, [1]])
def test_json_number_is_not_a_bool_text_or_null(value):
    with pytest.raises(TypeError, match="score must be of type int or float"):
        json_field({"score": value}, "score", JSON_NUMBER)
