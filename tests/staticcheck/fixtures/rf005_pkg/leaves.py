"""Whitelisted cost/effect leaves the paired implementations share."""


def gc_fraction(occupancy):
    return min(0.3, occupancy * 0.1)


def codec_of(codec):
    return {"lz4": 0.55, "zstd": 0.42}.get(codec, 1.0)
