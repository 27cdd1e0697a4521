"""Reference images of the periodicity maps, one model operation at a
time: the breadth-first extension of generator images by object products,
and split_odd's images by IsometryPair.conjugate.  The tests hold the
readouts that isolab.extend_generator_images and clifford.split_odd build
in batches against them."""
from twistalg import generator
from twistalg.isolab import _split


def reference_extension(f, gen_images, target) -> list:
    """Each t first reached as r s, r in the frontier and s a generator in
    that order, with image f(r,s)^* (image_r image_s)."""
    g = f.group
    images = [None] * g.order
    images[g.identity] = target.unit()
    for t, im in gen_images.items():
        images[t] = im
    frontier = [t for t in range(g.order) if images[t] is not None]
    while frontier:
        new = []
        for r in frontier:
            for s in gen_images:
                t = g.op(r, s)
                if images[t] is None:
                    prod = target.mul(images[r], images[s])
                    images[t] = target.scale_left(f.values[r][s].star(), prod)
                    new.append(t)
        frontier = new
    return images


def reference_split_images(pair) -> list:
    """(theta_+^* R(V_t) theta_+, theta_-^* R(V_t) theta_-) for every t."""
    f2 = pair.source_f
    return [tuple(pair.conjugate(generator(f2, t), sign) for sign in (1, -1))
            for t in range(f2.group.order)]


def readouts(target, images) -> list:
    """One readout stack per summand of target, as a Morphism holds them."""
    return [mod.readout(ims) for mod, ims in _split(target, images)]
