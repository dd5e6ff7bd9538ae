"""The batch twin forgets the codec leaf the scalar path applies."""

from .leaves import codec_of, gc_fraction


def compute_stage_cost(data_mb, codec, occupancy):
    base = data_mb * codec_of(codec)
    return base * (1.0 + gc_fraction(occupancy))


def compute_stage_cost_batch(data_mb_list, codec, occupancy):
    factor = 1.0 + gc_fraction(occupancy)
    return [mb * factor for mb in data_mb_list]
