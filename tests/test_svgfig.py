"""SVG rendering: the exact bytes of `render_svg`, pinned by hash."""

from __future__ import annotations

import hashlib
import random

import pytest
from helpers import random_triangulation

from polytri.disjoint import arrow, snake
from polytri.svgfig import HIGHLIGHTS, render_svg

# sha256 of the renders under every highlight, each at the default stroke
# width and at 1.2345, concatenated in that order
RENDER_SHA256 = {
    ("fan", 4): "aa2f7bc25bc9490c3c5dc9d2f6376f850566f4250da0b60966dbe8abc94fb83f",
    ("fan", 9): "c091989ab03147e3f1ad84ae338236f843b1da2cff22e35d284231507dde3734",
    ("fan", 40): "e30bcc3223ba5be5fc33485a14825605cc62f34c3679870fe62ab0468bcfc619",
    ("fan", 801): "fe62ac2608454c4b4e01a2db392abed8e9075591d713d565ccb661df7c171b0c",
    ("snake", 4): "cdc923fc029ff251264cd6bc56e0eb56ab48b1226a7db81e91093b3b025f3d48",
    ("snake", 9): "6c6694b081121a0f077360782611b51e3ed4166e44d8694726b498bf5a4101bd",
    ("snake", 40): "fd9189fb169ac80a2278a51c80330e9f6cf36dd3e03eb3ca79531fbb9d068c15",
    ("snake", 801): "ab78bc64d39b9a77c9ebe7be4976669da4b217d4a9f8c38d133fab32026db068",
    ("random", 4): "aa2f7bc25bc9490c3c5dc9d2f6376f850566f4250da0b60966dbe8abc94fb83f",
    ("random", 9): "154809b7787d50a20ff067bee61e1800aa370a488495542affa0beee274c1b71",
    ("random", 40): "8ff97285344b3ccb7009352c034a689fca7928ae574d66222aef66ed8a73cd95",
    ("random", 801): "6828e10b043e4e9aad303a83a15dea7e7634755fd1347b024b9cca9347af2759",
}


def shape(name, n):
    if name == "fan":
        return arrow(n)
    if name == "snake":
        return snake(n)
    return random_triangulation(n, random.Random(n))


@pytest.mark.parametrize("option, message", [
    ({"highlight": "wings"}, "highlight must be one of none, ears, internal, both, got 'wings'"),
    ({"size": 10}, "size must be at least 60, got 10"),
], ids=["highlight", "size"])
def test_render_refuses_a_bad_option(option, message):
    with pytest.raises(ValueError) as info:
        render_svg(arrow(5), **option)
    assert str(info.value) == message


@pytest.mark.parametrize("name, n", sorted(RENDER_SHA256))
def test_render_bytes_are_pinned(name, n):
    t = shape(name, n)
    digest = hashlib.sha256()
    for highlight in HIGHLIGHTS:
        for stroke_width in (2.0, 1.2345):
            digest.update(render_svg(t, highlight=highlight, stroke_width=stroke_width).encode())
    assert digest.hexdigest() == RENDER_SHA256[name, n]
