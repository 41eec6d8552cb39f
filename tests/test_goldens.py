"""Bit-level goldens for the sign fields, the paths, the samplers, the
moment tables, the path normalization, the fractal estimates, the box
counts and the CLI's CSV, SVG and JSON artifacts.

Each golden is the sha256 of the result as little-endian float64 bytes,
except the packed sign fields and the raw sign-bit windows, which are
hashed as their raw bytes, and the CLI artifacts, which are hashed as
the bytes of the files written.
They pin the exact output of the stream hashing, the level expansion,
the block sums of ``build_path``, the count chain, the chunked PCG64
draws, the composition sums and log-sum-exps of the moment tables, the
enumeration oracle's weighted cell sums, the characteristic-function
ladder's log-polar rungs, the statistics of the terminal CLT trend, the
regime divisors, the fractal window extrema and the writers' number
formatting, so a rewrite of any of these must reproduce every bit, not
just agree to a tolerance.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from cascadekit import (
    CascadeParams,
    brute_force_moments,
    build_path,
    clt_terminal_trend,
    generate_leaf_signs,
    limit_z_moments,
    normalize_path,
    normalized_moment_recursion,
    sample_branch_signs,
    sample_terminal,
    sample_terminal_depths,
    streams,
    z_moment_recursion,
)
from cascadekit.cli import main
from cascadekit.fractal import (
    box_dimension,
    increment_scaling_exponent,
    pointwise_holder_profile,
    summarize_field,
)

SEED = 11
#: Two replica chunks of the samplers (chunk size 8192).
REPS = 10000

HURSTS = {"H0.7": 0.7, "H0.5": 0.5, "H0.3": 0.3, "sym": None}


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for arr in arrays:
        h.update(np.asarray(arr).astype("<f8").tobytes())
    return h.hexdigest()


def _params(b: int, tag: str) -> CascadeParams:
    return CascadeParams(base=b, hurst=HURSTS[tag], seed=SEED)


def _sampler_cases():
    for b in (2, 3):
        for tag in HURSTS:
            yield (f"terminal-b{b}-{tag}",
                   lambda b=b, tag=tag: sample_terminal(_params(b, tag), 8,
                                                        REPS))
            yield (f"pair-b{b}-{tag}",
                   lambda b=b, tag=tag: sample_terminal_depths(
                       _params(b, tag), (4, 7), REPS))
            yield (f"branch-b{b}-{tag}",
                   lambda b=b, tag=tag: sample_branch_signs(_params(b, tag),
                                                            3, REPS))


def _exact_cases():
    for b, tag in ((2, "H0.5"), (3, "H0.3"), (2, "sym")):
        yield (f"normalized-b{b}-{tag}",
               lambda b=b, tag=tag: normalized_moment_recursion(
                   _params(b, tag), 12, 8).values)
    for b, h, q_max in ((2, 0.7, 12), (3, 0.8, 8), (5, 0.9, 6)):
        yield (f"limit-b{b}-H{h}",
               lambda b=b, h=h, q_max=q_max: limit_z_moments(
                   CascadeParams(base=b, hurst=h), q_max))
    for b, tag in ((2, "H0.7"), (3, "H0.3"), (2, "sym")):
        yield (f"zlog-b{b}-{tag}",
               lambda b=b, tag=tag: z_moment_recursion(
                   _params(b, tag), 10, 8).log_values)
    # the tables of the benchmark's moments operations (n = 60) and of its
    # moments check (n = 40, q = 4): b = 5, deep rows and overflowed entries
    for b, tag, n_max, q_max in ((2, "H0.7", 60, 16), (2, "H0.5", 60, 16),
                                 (2, "H0.3", 60, 16), (2, "sym", 60, 16),
                                 (3, "H0.7", 60, 10), (5, "H0.7", 60, 10),
                                 (5, "H0.3", 60, 10), (2, "H0.7", 40, 4)):
        yield (f"zlog-b{b}-{tag}-n{n_max}-q{q_max}",
               lambda b=b, tag=tag, n_max=n_max, q_max=q_max:
               z_moment_recursion(_params(b, tag), n_max, q_max).log_values)
    # the enumeration oracle in every regime, at integer H (p_minus = 0 at
    # H = 1), symmetric, negative H and irrational b^(H-1)
    for b, h in ((2, 0.7), (2, 0.0), (2, 1.0), (2, None), (3, 0.0),
                 (2, -2.0), (2, 0.3), (2, 0.5), (2, 0.95), (3, 0.7)):
        yield (f"oracle-b{b}-H{'sym' if h is None else h}",
               lambda b=b, h=h: brute_force_moments(
                   CascadeParams(base=b, hurst=h), 3 if b == 2 else 2,
                   6).values)


def _trend_cases():
    """Every statistic of the terminal CLT trend, in report and key order,
    then the decreasing flag."""
    for tag in ("H0.3", "sym", "H0.5"):
        def run(tag=tag):
            reports, decreasing = clt_terminal_trend(_params(2, tag),
                                                     (8, 12, 16), REPS)
            return (*(list(r.statistics.values()) for r in reports),
                    float(decreasing))
        yield f"trend-b2-{tag}", run


def _path_cases():
    for tag in HURSTS:
        def run(tag=tag):
            params = _params(2, tag)
            raw = build_path(generate_leaf_signs(params, 10), params)
            return normalize_path(raw, params).values
        yield f"normalized-path-b2-{tag}", run
    # n = 23 spans two 2^22-leaf blocks of build_path's block-sum loop
    for name, b, h, depth, max_points in (
            ("path-b3-H0.6-n9-full", 3, 0.6, 9, 3**9),
            ("path-b2-H0.7-n20-decimated", 2, 0.7, 20, 2**10),
            ("path-b2-H0.7-n23-full", 2, 0.7, 23, 2**23),
            ("path-b5-H0.8-n8-full", 5, 0.8, 8, 5**8)):
        def run(b=b, h=h, depth=depth, max_points=max_points):
            params = CascadeParams(base=b, hurst=h, seed=SEED)
            return build_path(generate_leaf_signs(params, depth), params,
                              max_points=max_points).values
        yield name, run


CASES = dict([*_sampler_cases(), *_exact_cases(), *_trend_cases(),
              *_path_cases()])

GOLDENS = {
    "branch-b2-H0.3": "0a910b3df97d9299d13520bfe6814855a564f5c11381878d5f22a94ba08933c6",
    "branch-b2-H0.5": "a6df497f09dd37bc2d9b607cf29a9b212f18dd2f243bf6aa749f21f167fe71db",
    "branch-b2-H0.7": "a7b17226b5c4b16b0fa99158e026dedb5fa35eefdb1b2c65a89b190eccfe19fa",
    "branch-b2-sym": "1ff1b66dbd1f71640155a5fdc9067ff5df9e1fc88ff3bbd16a572f79f8ba4c78",
    "branch-b3-H0.3": "546c89e6bde3440d5629d24b25a6ae1fe50619b65a5abe70f199ec1adf868469",
    "branch-b3-H0.5": "23a0b47979c3dd232ee390a668376150d90895e1a79aa414150a09ca8da72ebd",
    "branch-b3-H0.7": "a9440da1b8bbe7bbbfec88d0bf2e35e174ecaf0d6cad8eb3718ded2d1008ce56",
    "branch-b3-sym": "9e4ae77757ab9ae7b65ac525b944a3e1f2193bb0211faabe6ec18e59f2e28fc0",
    "limit-b2-H0.7": "90cbd0868ac24da8e8f60cc4135be4795f82734daf8ebf1cbff1cd3d87eecf22",
    "limit-b3-H0.8": "339683d63a3771296cbbd2195bc101092b8e7a7da7d0f9d31fbab1bc324a93f1",
    "limit-b5-H0.9": "5c7a259a0480ed1ef7c91fac51bd49011b35bd3da527e9d1b7d38a1044c9613a",
    "normalized-b2-H0.5": "04020bb3dbf29d1ea3a38ec7ae588c02d9ea3ead94956ed8630a21709779efa6",
    "normalized-b2-sym": "faf30f12872e447b251200d86bdaca66ba02c09da3287ff64924002d18a9809b",
    "normalized-b3-H0.3": "b464fa1dc2e16bda9ec4fc06328e7321c64b23928bc60c5dd4fa7ca51aea9d3c",
    "normalized-path-b2-H0.3": "f29333e3738e505c58bd0d303b10ae10f659a9b99a2dec3af2f1c91c20ef876d",
    "normalized-path-b2-H0.5": "43a7e1a4a33fd0b16788118ac4c174e08a7bc6ba23ac9a8b972c21f75000147c",
    "normalized-path-b2-H0.7": "4002afc561ef8412579c7a8cbef61e7b9b2233059fa8ef592107ec0508e83910",
    "normalized-path-b2-sym": "79d72a6b1fdef60bf2b70d61de5fa735c9b80ee76eaca8e215b99ddfdbeb91fc",
    "oracle-b2-H-2.0": "894faee8e27a141d08bafe27494c293933f3996adb1c5152080f230f034f1ff4",
    "oracle-b2-H0.0": "89579021ed88b678a2c13af05dfa246e255c2b0fb2d9dcd1692e05bf1c4d1452",
    "oracle-b2-H0.3": "e668f3f18a19ca95f96987d29a92d1e880ebb011f4b3593da503a337f3c93b80",
    "oracle-b2-H0.5": "9650282804575c7d0f3b7a012f4bcb1fe0e8dd465a7a5480c203eb401f30cf6a",
    "oracle-b2-H0.7": "637329f48bf292e088c73617732588a151a284f59c94d71900143de7e3bd9358",
    "oracle-b2-H0.95": "3a28f873a31beadcc5aec79f58fbaf78779ad1dd0fb5eb41d9f46e95b37bcb33",
    "oracle-b2-H1.0": "d453d79d97d74088b2ff1846059ab2462f98d27e9838812a542352eec3338521",
    "oracle-b2-Hsym": "b2331042a2c4fd15a40771bd82549bcb14c542e375e8b2379461156eae2202e1",
    "oracle-b3-H0.0": "889362f1c5b17c44b8b871bde960e0683b7f85f8b49b4d362e47d568b3fbf3e7",
    "oracle-b3-H0.7": "6373d407b7634d7cab91f6fa39b30d81194e4ba90a6a8f11c213dbf59fa2ddb2",
    "pair-b2-H0.3": "306f4d1a6d296b292d86c908a1bade8e6c74ef69e091ae6dd43fa01fae2c8188",
    "pair-b2-H0.5": "ba10857adfd44a787c6b8ae7dd599a12300bd4ff762a4d76dac745ff87827e0f",
    "pair-b2-H0.7": "ba55611b373fa7621a39108f9bf6225124ce0d21ce736486a5fdbb8167180408",
    "pair-b2-sym": "d3d800bbe0f6f7828d27ffd286bb756928bef86d98b88b51bd3adfca999cec16",
    "pair-b3-H0.3": "5ca387b4775891dac917fc4e148023a5091026c8461caa5226c1c80e601a60c5",
    "pair-b3-H0.5": "36bae5b6d0603eb5d538ff454f0ec592730c877cd1a59a375ccb4cc1a4b89451",
    "pair-b3-H0.7": "2abb76f9837fdf72d5b282bee297414a74e89d76d7ea9c662d633ecdd0bfc09d",
    "pair-b3-sym": "09121367a01b532a63811b16ca7c0830f2edc41352f622e781bd32b74451cc67",
    "path-b2-H0.7-n20-decimated": "459f124d9be2e3f6fde17559bfb517dc915db5915801dda1d75dcedf5ed1d91c",
    "path-b2-H0.7-n23-full": "dddb827c55cbe078a2a46d068c2ebbbac6130e1456209d7dd0607cddc605a9e5",
    "path-b3-H0.6-n9-full": "cd285e9aba3e94e21a58a7dea58b44868ee02d82ee483159fea354e86976ac8b",
    "path-b5-H0.8-n8-full": "a093a33b01b9933c5e7bdd3ed1352c3c4c5db58eff7f8d96e48fe68b21697302",
    "terminal-b2-H0.3": "28f7e751cd982217593198668e8f8185bc5f4f2819b9218380809c3db62526c4",
    "terminal-b2-H0.5": "526eb9544233ac2912a28fba95bd339b53f6d51021893050af983ff5f928b80b",
    "terminal-b2-H0.7": "559562f56ae192e86c4364b38b04c5591f6989b33df396872da57c9ecf6d4ec0",
    "terminal-b2-sym": "e5e89ca0567254ff9bd2fd200cd6b29bc186c54245c91c9ca366dced83b60d35",
    "terminal-b3-H0.3": "e68e0e505854ec798ba99e7dbab29206c01d6a8ac986630cbf9d1a3d1fa060e4",
    "terminal-b3-H0.5": "0606b727d286ba46bd5752194ce54352fa15f9aaa81a41e3bcff13b332a82c38",
    "terminal-b3-H0.7": "976e98bd63d40ec24472b684074dad7c2d5257d7bcf5c274f6f921056aa9039e",
    "terminal-b3-sym": "f604c6a7f7ca030fad0d5de0eaebf5d8974b7f5f9c59ce5634a83089939cc207",
    "trend-b2-H0.3": "1b5773f7bbe36e19be65454a0f243db041a8aa4740933e678622e7d134f6d36f",
    "trend-b2-H0.5": "ba0e50bb72ea4469205de3a37359f792466fb7f80f2d44245798d309667768a0",
    "trend-b2-sym": "16bf6bf392c70d61102c0e71f3a2cc1265863e18a32c06f0906734cfca7c9078",
    "zlog-b2-H0.3-n60-q16": "d9b1b22e317eab3a4736d0ec848e2c6cb042b3180a808a9d7285161ba949ab44",
    "zlog-b2-H0.5-n60-q16": "987cfdba3618f04169342408491a5ab1c3d7d4ba2352128f89f4ab8e930d0b68",
    "zlog-b2-H0.7": "7c3953582dd78b972b9898715931bc4e22e40042d34b1091e995b69a196a8221",
    "zlog-b2-H0.7-n40-q4": "7ed15f036266d2c49feb7c957dbcf97174e1aa58b63eacb3bdcd6fb803e38c9f",
    "zlog-b2-H0.7-n60-q16": "1c90532f79a2ba43dd7ffb689621704263f0ac0298a55842c7c8d1c44495e589",
    "zlog-b2-sym": "ba7fd0ae8dd1df52a032cdcc78eda76c7f1c9324258b15040a831b7f3a38b1f4",
    "zlog-b2-sym-n60-q16": "3a22f88a9817d4e0f6cc032aa30a73debccce1159c0391d13ae77bdb686d2dd4",
    "zlog-b3-H0.3": "78bb6c277209c4255c1d64db45568feb669b49029a559480f4fc9ec17466939b",
    "zlog-b3-H0.7-n60-q10": "1695ebe76766cb43e0c6b883b0b176f721226aa59a1e27abd5ba93102e02f162",
    "zlog-b5-H0.3-n60-q10": "c600768b966a7c8f4b16bd776c4e25bc8095d7fce039c5896e50f29fdc7c98e1",
    "zlog-b5-H0.7-n60-q10": "81758c76ea82d35bdc5b9c0e10af8ab3a0e42236e83baa6f1f1639509bae2f75",
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_bits(name):
    result = CASES[name]()
    arrays = result if isinstance(result, tuple) else (result,)
    assert _digest(*arrays) == GOLDENS[name]


#: (b, H, depth, seed) of the packed-field goldens: a depth >= 20 field,
#: b = 3, the all-plus H = 1 field, the fair-sign field, a negative H, and
#: a b = 3 field whose last level (3^14 > 2^22 leaves) spans two expansion
#: chunks, the second starting off a multiple of b.
FIELDS = {
    "b2-H0.7-n20": (2, 0.7, 20, SEED),
    "b3-H0.6-n9": (3, 0.6, 9, SEED),
    "b2-H1-n10": (2, 1.0, 10, SEED),
    "b2-sym-n12": (2, None, 12, SEED),
    "b2-H-2-n12": (2, -2.0, 12, SEED),
    "b3-H0.7-n14-seed1": (3, 0.7, 14, 1),
}

FIELD_GOLDENS = {
    "b2-H0.7-n20": "f99d37759cbe991e150d7fa5961e8d5181f271d6c63b88b689a34225aae34d9e",
    "b3-H0.6-n9": "2dbc44e10cfdc815b5e37676b47531f28fed0dcd36ffb99020d64f28361fd584",
    "b2-H1-n10": "38723a2e5e8a17aa7950dc008209944e898f69a7bd10a23c839d341e935fd5ca",
    "b2-sym-n12": "df0fd41eaaf3db3c8f2d8ac7c2dfe7f8ad04056164259e9d7040c6ad82b15e8f",
    "b2-H-2-n12": "8bd43118c0669f4de6e99e40443789506f81891385c3f6c25454bd57601beda3",
    "b3-H0.7-n14-seed1": "587d1dffdbfb64c930329734490b02e9bbf376e01ec304ba465196b2c5368bb5",
}


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_packed_field_bits(name):
    b, h, depth, seed = FIELDS[name]
    field = generate_leaf_signs(CascadeParams(base=b, hurst=h, seed=seed),
                                depth)
    assert hashlib.sha256(field.packed.tobytes()).hexdigest() \
        == FIELD_GOLDENS[name]


def _window_args(count):
    """Seed-1 stream at b = 2, level 20, H = 0.7, from in-level index 12345."""
    state = streams.premix_seed(1)
    threshold = streams.sign_threshold(
        CascadeParams(base=2, hurst=0.7, seed=1).p_plus)
    return state, 2, 20, 12345, count, threshold


def test_sign_bits_window_bits():
    """An unaligned window spanning several 2^16-word blocks, packed into
    whole bytes with zero padding; the digest is of its unpacked bits."""
    count = 3 * 2**16 + 7
    bits = streams.sign_bits(*_window_args(count),
                             out=np.empty((count + 7) // 8, dtype=np.uint8))
    assert bits.shape == ((count + 7) // 8,)
    assert bits[-1] & (0xFF >> count % 8) == 0  # the padding bits
    unpacked = np.unpackbits(bits, count=count)
    assert hashlib.sha256(unpacked.tobytes()).hexdigest() == \
        "40f903aa3c411a3b1e9c25563b3886e93350f216dbc6e13097e7d1c6d9ea2914"


@pytest.mark.parametrize("threshold", [None, 0, 2**64])
def test_sign_bits_empty_window(threshold):
    """count = 0 fills an empty uint8 array, hashed or not."""
    args = list(_window_args(0))
    if threshold is not None:
        args[-1] = threshold
    bits = streams.sign_bits(*args, out=np.empty(0, dtype=np.uint8))
    assert bits.dtype == np.uint8
    assert bits.shape == (0,)


#: CLI artifacts pinned byte for byte: argv of one call and the files it
#: writes.  Every run writes to the relative outdir ``out``, which the
#: metadata block records, so the bytes do not depend on the test's
#: temporary directory.
ARTIFACTS = {
    "simulate-b2-H0.7-n12": (
        ["simulate", "--H", "0.7", "--depths", "12", "--seed", "1"],
        ("path_b2_H0.7_n12.csv", "path_b2_H0.7_n12.svg")),
    "simulate-b2-H0.7-n18-decimated": (
        ["simulate", "--H", "0.7", "--depths", "18", "--seed", "1"],
        ("path_b2_H0.7_n18.csv", "path_b2_H0.7_n18.svg")),
    "simulate-b3-H0.7-n9": (
        ["simulate", "--b", "3", "--H", "0.7", "--depths", "9", "--seed",
         "1"],
        ("path_b3_H0.7_n9.csv", "path_b3_H0.7_n9.svg")),
    "simulate-b2-H0.5-n12-norm": (
        ["simulate", "--H", "0.5", "--depths", "12", "--normalize",
         "--seed", "1"],
        ("path_b2_H0.5_n12_norm.csv", "path_b2_H0.5_n12_norm.svg")),
    # integer-valued cells up to about 2^12
    "simulate-b2-Hsym-n12": (
        ["simulate", "--H", "sym", "--depths", "12", "--seed", "1"],
        ("path_b2_Hsym_n12.csv", "path_b2_Hsym_n12.svg")),
    "simulate-b5-H0.7-n6": (
        ["simulate", "--b", "5", "--H", "0.7", "--depths", "6", "--seed",
         "1"],
        ("path_b5_H0.7_n6.csv", "path_b5_H0.7_n6.svg")),
    "simulate-b2-H-2-n12-norm": (
        ["simulate", "--H", "-2", "--depths", "12", "--normalize",
         "--seed", "1"],
        ("path_b2_H-2_n12_norm.csv", "path_b2_H-2_n12_norm.svg")),
    "density-b2-H0.7": (
        ["density", "--b", "2", "--H", "0.7"],
        ("density_b2_H0.7.csv", "charfn_b2_H0.7.csv")),
    # density tails printed in e-XX notation
    "density-b3-H0.6": (
        ["density", "--b", "3", "--H", "0.6"],
        ("density_b3_H0.6.csv", "charfn_b3_H0.6.csv")),
    "fractal-b2-H0.7-n16-profile": (
        ["fractal", "--profile", "--b", "2", "--n", "16", "--p-range",
         "4,10", "--j-range", "1,14", "--seed", "1"],
        ("fractal_b2_H0.7_n16.json", "fractal_b2_H0.7_n16.csv")),
    "fractal-b3-H0.7-n12-profile": (
        ["fractal", "--profile", "--b", "3", "--n", "12", "--p-range",
         "2,6", "--j-range", "1,10", "--seed", "1"],
        ("fractal_b3_H0.7_n12.json", "fractal_b3_H0.7_n12.csv")),
}

ARTIFACT_GOLDENS = {
    "density-b2-H0.7": (
        "a2f8b179aca5e5a9dc60e4d60da3d079ddbe62ed4f4ea9821f219d038d34980a",
        "6ec884eea2fd112ec3f5a2b11a6e135136f20356486e699032b42a40c9b74cb5"),
    "density-b3-H0.6": (
        "97c8f9483a3f3da688054937baa2a9fc12715ea4674b65e22be7e626f7eb815b",
        "bbb94c734f61e2af7fde0bffd666dfe798f11d0a05910c9f03819ee889d81614"),
    "fractal-b2-H0.7-n16-profile": (
        "1cdac816698f62f0616e4d0b09e0d584207e735b71214469aa2731c300d8e75b",
        "17e8e7a5b57e09bd8f35efa1a2601fd88b0fa1d62952b3f8a155d6e7d8fe278f"),
    "fractal-b3-H0.7-n12-profile": (
        "f4e8c9b58b09d5c8317e36d3fe44b79644e71c8b25b33ae42cc797806c2dc7ab",
        "2c477fbd016b30bc320f010afa8cc82f10f43a1df996a93fe41e810295647b8d"),
    "simulate-b2-H0.5-n12-norm": (
        "09fb45b50c1615e66e969a91f7199f0ec25fb69936a083b2d5ec50d357edd04d",
        "1684a1cbad7b9c6aa35693f2eaaca4cf441d060fcb7dfebca57cc5339640ca9e"),
    "simulate-b2-H-2-n12-norm": (
        "104604d890ab1eb85e09b68b747af9e53b860db67383ab9a6969cb8233bc35a0",
        "657e43811ef60f3582924b35c668abe1220193b2ab7b67d7f71fa585d728c7bd"),
    "simulate-b2-H0.7-n12": (
        "24eab5ddc8aa087e1ec25d5d43e6acc3f6a5e28ea510c2bf81802d96d4838315",
        "553318a9061657ac9f6b453b63a3c3a3166c514cb631e7025dc3028edeb9c9af"),
    "simulate-b2-H0.7-n18-decimated": (
        "274df629f54bbfa163dac6d32ade777c78e1c55d13f4929c86d12a34bb0cdd68",
        "02db38b5541384537e74c7b1a1d0b238dfb98312ac01374aa89ebe40c81a324c"),
    "simulate-b2-Hsym-n12": (
        "a16259d2a219e8615270dcc735290751421b6775f6ac1e6b2183b51f12e67a42",
        "2730a3798337c9b9511e366cd65b77c89d47b1f44198a2d004771de62a5ce1e9"),
    "simulate-b3-H0.7-n9": (
        "1340dff043dd51b79fb2cebe9e7f3522abee7c9389630f57ce1be9cc5602f122",
        "a08d04a8bfa832ea90bc87690278b75266844f6b61f80bdd9d3e3397dd09866a"),
    "simulate-b5-H0.7-n6": (
        "40bfa6117989a55d0e10fc511ec2a9a1064a499eca3833bfdf28eb218f4e8494",
        "f4521fd638bc3d2e6dfffcfd8ac30d7d9aa55d11bc712eff615e2473b0e0fb06"),
}


@pytest.mark.parametrize("name", sorted(ARTIFACTS))
def test_cli_artifact_bytes(name, tmp_path, monkeypatch):
    argv, files = ARTIFACTS[name]
    monkeypatch.chdir(tmp_path)
    assert main([*argv, "--outdir", "out"]) == 0
    digests = tuple(hashlib.sha256((tmp_path / "out" / f).read_bytes())
                    .hexdigest() for f in files)
    assert digests == ARTIFACT_GOLDENS[name]


#: (b, H, depth, box j_range, profile j_range) of the fractal goldens.
ESTIMATES = {
    "b2-H0.7-n16": (2, 0.7, 16, (2, 14), (2, 12)),
    "b3-H0.7-n10": (3, 0.7, 10, (3, 8), (2, 10)),
}

ESTIMATE_GOLDENS = {
    "b2-H0.7-n16": (
        "0c1849929587e4f8f3b190ecabff4add1e046ee7a70377e691b5974aadf7909f",
        "f8cd75078f8e7bc004626e76d13ba7b6534e701c64178b4cbc6dc5e985df6b45"),
    "b3-H0.7-n10": (
        "23263d680461f6342f075f24b58cefe6ef470dcc33726933a72a935f5b6d8f6a",
        "28a8d1a8aab0a604d560153b30602d244ebb819a93617bf4d7c9bd93b17f4d87"),
}


@pytest.mark.parametrize("name", sorted(ESTIMATES))
def test_fractal_estimate_bits(name):
    """Box-count log values and estimate, and the pointwise profile, bit
    for bit (equal digests of float64 bytes imply array_equal)."""
    b, h, depth, box_range, prof_range = ESTIMATES[name]
    params = CascadeParams(base=b, hurst=h, seed=SEED)
    summary = summarize_field(generate_leaf_signs(params, depth), params,
                              j_range=box_range, holder_range=prof_range)
    box = box_dimension(summary)
    profile = pointwise_holder_profile(summary)
    assert (_digest(box.log_values, box.estimate), _digest(profile)) \
        == ESTIMATE_GOLDENS[name]


#: (b, H, depth, j_range) of the box-count goldens.  Each base has a range
#: from j = 1, whose columns (b^(depth - 1) samples) are wider than the
#: 2^16-sample slices box counting streams over, to j = depth - 2, and a
#: range whose columns are all narrower than one slice (for b = 3 and 5
#: the last slice is then ragged).  For b = 2 and 3 one more range has
#: every column wider than a block of the extrema table (4096 and 2187
#: samples), so all its counts come from the table.
BOX_COUNTS = {
    "b2-H0.7-n18-j1-16": (2, 0.7, 18, (1, 16)),
    "b2-H0.7-n18-j1-5": (2, 0.7, 18, (1, 5)),
    "b2-H0.95-n20-j4-18": (2, 0.95, 20, (4, 18)),
    "b3-H0.6-n12-j1-10": (3, 0.6, 12, (1, 10)),
    "b3-H0.6-n12-j5-9": (3, 0.6, 12, (5, 9)),
    "b3-H0.6-n12-j1-4": (3, 0.6, 12, (1, 4)),
    "b5-H0.8-n8-j1-6": (5, 0.8, 8, (1, 6)),
    "b5-H0.8-n8-j3-6": (5, 0.8, 8, (3, 6)),
}

BOX_COUNT_GOLDENS = {
    "b2-H0.7-n18-j1-16": "9a01b982171d6eb2a6b2f6e51fbb96cd9611824e1ddda5de5807c7cd1b34885d",
    "b2-H0.7-n18-j1-5": "356b29bd7b2c631af69b2a22e48ab61414a2b267db1b71fd1361cd4031e5363d",
    "b2-H0.95-n20-j4-18": "e260693bbca86a0b362ec494ebab8c8e13e5e35a3d57e7e8b710d468a87446c2",
    "b3-H0.6-n12-j1-10": "06ad0dd85c595ad517ad27a3fe4a1b39cdebe4bcdd76221860824e982c05b7b3",
    "b3-H0.6-n12-j1-4": "4546ec55f1e17a863e0ba1c1fdaac3c41bcb2ae65a78795c7fe7690d06f5dd87",
    "b3-H0.6-n12-j5-9": "b50e3eb835d4fd83183528d4e0332d5036c8d6b85c16399b97e1ac7a5cd44913",
    "b5-H0.8-n8-j1-6": "737911c35d8cae22575b74b96e609a08aec53cd956cde1b75998a42eed120e03",
    "b5-H0.8-n8-j3-6": "92fe6b0ce703b13d2135b30fc999b786011ed3285b0253d263e53bf55e468c9e",
}


@pytest.mark.parametrize("name", sorted(BOX_COUNTS))
def test_box_count_bits(name):
    """Box-count log values, bit for bit, across slice boundaries."""
    b, h, depth, j_range = BOX_COUNTS[name]
    params = CascadeParams(base=b, hurst=h, seed=SEED)
    summary = summarize_field(generate_leaf_signs(params, depth), params,
                              j_range=j_range)
    assert _digest(box_dimension(summary).log_values) \
        == BOX_COUNT_GOLDENS[name]


#: (b, H, depth, p_range) of the increment fits read from a summary made
#: for ``p_range`` alone, and their digests (log values and estimate).
INCREMENT_SUMMARIES = {
    "b2-H0.7-n18-p4-12": (
        (2, 0.7, 18, (4, 12)),
        "bc41d13cbc45ec8b041c061d1bab4e4c5ed368ce5dcb3f47b42d3fd00c9ef24b"),
    "b3-H0.7-n12-p2-6": (
        (3, 0.7, 12, (2, 6)),
        "73a9b699c5f167fa17526acae25069ea4032f000eae99053216048d5148f0fd9"),
}


@pytest.mark.parametrize("name", sorted(INCREMENT_SUMMARIES))
def test_increment_fit_from_a_p_range_summary_bits(name):
    """The increment fit on a field summary that holds no box counts and
    no balls, bit for bit."""
    (b, h, depth, p_range), golden = INCREMENT_SUMMARIES[name]
    params = CascadeParams(base=b, hurst=h, seed=SEED)
    summary = summarize_field(generate_leaf_signs(params, depth), params,
                              p_range=p_range)
    fit = increment_scaling_exponent(summary)
    assert _digest(fit.log_values, fit.estimate) == golden
