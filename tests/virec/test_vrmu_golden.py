"""Golden-digest guard for the ViReC register-cache hot path.

Every case pins ``(cycles, instructions, sha256 of sorted Stats.flat())``
to values captured before the VRMU/tag-store/policy/MSHR hot path was
rewritten for host speed.  Those rewrites must be pure host-time changes,
so any difference here — one cycle, one counter — is a model change.

The grid covers every registered replacement policy at 80% and 40% context
on four kernels, the NSF baseline, a 2-core node, and directly built
:class:`ViReCCore` instances exercising group eviction and next-context
prefetch (options ``RunConfig`` does not expose).

Run this file as a script to print the current digests.  Only paste them
over ``GOLDEN`` for a deliberate, documented model change.
"""

import hashlib
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from helpers import GATHER_REGS, build_gather_core  # noqa: E402

from repro.system import RunConfig, run_config  # noqa: E402
from repro.virec import ViReCConfig, ViReCCore  # noqa: E402
from repro.virec.policies import POLICIES  # noqa: E402

KERNELS = ("gather", "pointer_chase", "spmv", "histogram")
CONTEXTS = (0.8, 0.4)
BASE = RunConfig(n_threads=8, n_per_thread=6, seed=3)


def _run_cases():
    cases = {}
    for policy in sorted(POLICIES):
        for ctx in CONTEXTS:
            for kernel in KERNELS:
                cases[f"{policy}-{ctx}-{kernel}"] = BASE.with_(
                    workload=kernel, policy=policy, context_fraction=ctx)
    cases["nsf-0.4-gather"] = BASE.with_(core_type="nsf",
                                         context_fraction=0.4)
    cases["virec-2core-0.4-spmv"] = BASE.with_(workload="spmv", n_cores=2,
                                               context_fraction=0.4)
    return cases


RUN_CASES = _run_cases()

#: rf_size 14 is ~40% of four gather contexts (9 registers each)
CORE_CASES = {
    "core-group-evict-2": ViReCConfig(rf_size=14, group_evict=2),
    "core-context-prefetch": ViReCConfig(rf_size=14, context_prefetch=True),
}


def _digest(cycles, instructions, stats):
    blob = repr(sorted(stats.flat())).encode()
    return (int(cycles), int(instructions), hashlib.sha256(blob).hexdigest())


def observe(name):
    if name in RUN_CASES:
        res = run_config(RUN_CASES[name])
        return _digest(res.cycles, res.instructions, res.stats)
    core, mem, sym, expected = build_gather_core(
        ViReCCore, n_threads=4, n=48, virec=CORE_CASES[name])
    stats = core.run()
    assert mem.read_array(sym["out"], len(expected)) == expected
    assert len(GATHER_REGS) * 4 > CORE_CASES[name].rf_size
    return _digest(stats["cycles"], stats["instructions"], stats)


GOLDEN = {
    'core-context-prefetch': (2269, 312, '2554169f5ba8c013a43c26db480241bf37e978c6ca050e75bbe7767b9501f02f'),
    'core-group-evict-2': (2075, 312, '134e81144a60306d5642f59a5b52c2da0466b952b775dab856df50f6fbde0b37'),
    'dead-elide-0.4-gather': (1813, 336, '5a1e2f01bd6745aacbf048a834ac8e992c2602b6d053e36c64620666c7c794d4'),
    'dead-elide-0.4-histogram': (1911, 456, '7dce54082e068facad2c2e77c734614605a630436a280a5e93b8de927c3a0483'),
    'dead-elide-0.4-pointer_chase': (1245, 184, '4d58a0f9dd637838bd71407838a5d03902216f735f8ff5f0eb0a225466e6cd0c'),
    'dead-elide-0.4-spmv': (17651, 3136, 'f7691f0ffbb99327cd5f2b2a671032441bfdda8e737eebf1e66938e8ec5285a9'),
    'dead-elide-0.8-gather': (1605, 336, 'caf0e3219c2a290db2b13f138d13e1041ba4b8b610f318d804483d163f974560'),
    'dead-elide-0.8-histogram': (1731, 456, '20c5202d5c3419c75f7d677bc1ebb80ac21b9acf9621e8f550367dba9e697d7b'),
    'dead-elide-0.8-pointer_chase': (1195, 184, '8b856d014552c77d8dff39ab9c7905f9ec15f685e746078c02065239bfe9139e'),
    'dead-elide-0.8-spmv': (15439, 3136, '6de018149faeb41354cb5fad88a4986da8dc7ab5c8961a7937be217c783459d8'),
    'dead-first-0.4-gather': (1846, 336, 'fd0a37d76ebd732b3a0ddb8c89346490a371c71349f45a47589e6a389a2c3613'),
    'dead-first-0.4-histogram': (1914, 456, '451afd923f98f0441c6e5ac8efd7f4af71e5f44d8dbccd1271d112b79966fff6'),
    'dead-first-0.4-pointer_chase': (1257, 184, 'e90352b50106d451c065ea4e16723fe361e60dde4c42f04aa8a4db0953932700'),
    'dead-first-0.4-spmv': (17978, 3136, 'bd59375cc4c747825daad33de1ce42d0bf1d6d16d2dbc98ba7d6f697a55ac494'),
    'dead-first-0.8-gather': (1615, 336, 'ad7d633c54c7deff02bfb98cb29322e438b38d36afa2b4064e6ce6c5b9f747f5'),
    'dead-first-0.8-histogram': (1731, 456, '603ac59d9c378f6f477e1802f26d0c37be4e3b34fbcf379c1e4fb7bb76f6b2df'),
    'dead-first-0.8-pointer_chase': (1208, 184, '48fb9c0c7469c0a54c90637e0d02c48a17bd1d6cb357ceb31182d17827cebaf5'),
    'dead-first-0.8-spmv': (15776, 3136, 'a1815741638f3e70658deec64666c927b5d5e49e487a136ef4a5487661874402'),
    'lrc-0.4-gather': (1843, 336, 'a3661ff5049f27c32cecf71f0f787c1974e31f4ef13b87e958b624c2b27d26f5'),
    'lrc-0.4-histogram': (1903, 456, '92133e4d6327b851bc2e9bb16eddfb779fa3740289c281675337fa93f0b62741'),
    'lrc-0.4-pointer_chase': (1264, 184, '1011e287f9744c384cea3e169a2a56e6710d341f99e593239b3602d376016c63'),
    'lrc-0.4-spmv': (17946, 3136, '40eb1bd01237d79142c0d91f0a1b5a8366a661822874384b4d399084da4d72b2'),
    'lrc-0.8-gather': (1651, 336, '4f6c17173787962fdbc77c8fcc2699ef23956e5856dc48e63e006b4bd28a2521'),
    'lrc-0.8-histogram': (1742, 456, 'd4d168a7227514bf1230af68ba176e28ce4b4b9b416dc119ebca2fc25e817271'),
    'lrc-0.8-pointer_chase': (1229, 184, 'c3ee09206c17697219a5d1c3cdc155b5497d6db997a3d4fe7fba4a6f9f9c43da'),
    'lrc-0.8-spmv': (14634, 3136, '1b2473f69df78c1cb110d30992b88bed9008efa6213243dc8d972419d15b6441'),
    'lru-0.4-gather': (1948, 336, '9c450c629d15947e014742f538bfaf59786fab798edaab9f8e1bba9af334da18'),
    'lru-0.4-histogram': (2027, 456, '093893e8fb5e25c7e88865dd76418327ee1986c89a8cef5efac32e3085803dcf'),
    'lru-0.4-pointer_chase': (1323, 184, '5bf5639141f143d3bae508653d8cd84cc42abc3c21cefff14bd3e5f6bdf39cff'),
    'lru-0.4-spmv': (18146, 3136, '55c4e85b22c0fcc366efe545c6629e5541f17b9977c425bb45fe573a648fda1c'),
    'lru-0.8-gather': (1872, 336, 'a49bae20aceae4f352c077f56a161ee129793344512f859ba1f5e7e92c78491b'),
    'lru-0.8-histogram': (1960, 456, '1bd7a6ef978b5968e15656ec5ba4cd45d3ec763fd108b13e1cd1219aeb56093f'),
    'lru-0.8-pointer_chase': (1321, 184, '66ddeb5eb209f6e91d136ea3b4edbb3ee197921080f6fa7a2b18b66d36d78379'),
    'lru-0.8-spmv': (16548, 3136, '627a983025db7e52344ee75a755a116da25baef8f445e24049d78183f70311a0'),
    'mrt-lru-0.4-gather': (1835, 336, '3304a354ffc3ddc27d3a89d78f819e39d5eb02bfc389164c4744f1189d915f52'),
    'mrt-lru-0.4-histogram': (1913, 456, 'ca4871a2b1230f9423d4e4230f07bc46ce01c7eb33dd537bb57e6a33b1fd0026'),
    'mrt-lru-0.4-pointer_chase': (1266, 184, 'c0adf1de8dadbe6ec8728c757a3177631249c6dec2679f70969dd24b58504023'),
    'mrt-lru-0.4-spmv': (17329, 3136, '60523968c60a461140d98a3bcb46c7488e7f6052678d8e6f9380e0abccf55cd6'),
    'mrt-lru-0.8-gather': (1647, 336, '72f2150b802bd72a19ba8d0d34f85a854bea3c493e0e5ff24de75d4466c8dde4'),
    'mrt-lru-0.8-histogram': (1745, 456, '79a13172b81034dc1a1741170f14de58157b974b623a9c1534e121d241432fd2'),
    'mrt-lru-0.8-pointer_chase': (1231, 184, 'ded980a67f8c1192885882bbfec2d696778b0faa711b3cf0ff506680e5e24db7'),
    'mrt-lru-0.8-spmv': (15522, 3136, '36634d70ee1b2d4deeb33ce78979dce1c4c7e9c3835b9762b57fda07ca93d69f'),
    'mrt-plru-0.4-gather': (1843, 336, '0d6d14202fa85f503dedb316dd058a09183b0f2470bc35a15f28810608c4527b'),
    'mrt-plru-0.4-histogram': (1903, 456, '92133e4d6327b851bc2e9bb16eddfb779fa3740289c281675337fa93f0b62741'),
    'mrt-plru-0.4-pointer_chase': (1264, 184, '1011e287f9744c384cea3e169a2a56e6710d341f99e593239b3602d376016c63'),
    'mrt-plru-0.4-spmv': (17960, 3136, 'bc1996837e0a650fa22a75304f52f11e242573b4f93e26d96187c6d19017fba8'),
    'mrt-plru-0.8-gather': (1651, 336, '4f6c17173787962fdbc77c8fcc2699ef23956e5856dc48e63e006b4bd28a2521'),
    'mrt-plru-0.8-histogram': (1742, 456, 'd4d168a7227514bf1230af68ba176e28ce4b4b9b416dc119ebca2fc25e817271'),
    'mrt-plru-0.8-pointer_chase': (1229, 184, 'c3ee09206c17697219a5d1c3cdc155b5497d6db997a3d4fe7fba4a6f9f9c43da'),
    'mrt-plru-0.8-spmv': (14838, 3136, '451394aabe574d8f45ea33f7efa9474f3d36db15833f779a46533be53d2ed40a'),
    'nsf-0.4-gather': (2969, 336, '0f00f117325ed4bec1fed61152fdb7b1c1abd53e8ce00bc9641c2892be667482'),
    'plru-0.4-gather': (1889, 336, 'c92d513cfa430b21ba745ee1cecb74cb439daa4c600b769df8c5f94f6fb6fc3f'),
    'plru-0.4-histogram': (1965, 456, 'de1d255041767740fdd29a97a0d19ab215227fa875cf6c96ae9624abc4a836e5'),
    'plru-0.4-pointer_chase': (1306, 184, '5d07000017157de9bd394639b1f3df4b3ffd09542b6dbd26d52d944ee5255e5d'),
    'plru-0.4-spmv': (18046, 3136, 'e7a3c4971c8cd38d7eb835c9906d649b969f00152bec019f72efc14303e0b78f'),
    'plru-0.8-gather': (1731, 336, 'b4933107a431ff15829188f21e0528751c0654bca0a7dee7d1fdf00343024fe3'),
    'plru-0.8-histogram': (1808, 456, '1e9162b7741212bc49363f3494a02f04546132d59ef653e95b1aeec9a820fc8f'),
    'plru-0.8-pointer_chase': (1262, 184, 'ae23b13089b1f4c86495288ee127cb0fb3f6c704fd9a06f454aea2010fef958f'),
    'plru-0.8-spmv': (17043, 3136, '224e898e8d3cfafbd16a1538efb01ca89d8021203176deb69100529e6bc72f7b'),
    'random-0.4-gather': (1918, 336, '156e4efd5fd6365c684947e9d56e9658f6a13f8dfc0d11b548a98f4d2aecfd51'),
    'random-0.4-histogram': (2020, 456, 'c717308f45008a420aa18fb7637ca85b80cb17ca0a85cc2c73966d8163cb2316'),
    'random-0.4-pointer_chase': (1293, 184, '6a3ed3029b3d0a98d3ae057f66ddabc8fd9fd5948f4a1f554efc8764afbc94f0'),
    'random-0.4-spmv': (18616, 3136, 'c8c57587c5a4a2dc1c01ba9edee1d973fe639e97af712c94b1fd6d46003afc58'),
    'random-0.8-gather': (1685, 336, '362f256242426ede9bd0e2d71bf27467db13ba8b1d00f7aafc8d2cce35381297'),
    'random-0.8-histogram': (1798, 456, '8bafe7fd72c8ff9b5b3e3bbfa6fdb82dd53917c8c16335923f8a9707976cbced'),
    'random-0.8-pointer_chase': (1250, 184, '1b1eaf55ceeff218b71f8002f48daaca5193511c434a02f1f64270b6e0852e66'),
    'random-0.8-spmv': (16101, 3136, 'dd97691d1f5157121255897514a92febac9c97bd50562439446a2f6cf18b4b85'),
    'srrip-0.4-gather': (1967, 336, '05947c2aca95efed64d98e16f4d446626f068cfcef3dbd10c0610f487c6132eb'),
    'srrip-0.4-histogram': (2034, 456, '4aaa62ade67901a99f658e3060f7c4f14d25b3a4aa4e236ab3da7a7701738c60'),
    'srrip-0.4-pointer_chase': (1323, 184, '8b7c2600f31ae1f6d13eb4273e78e4860e2fa9d5d3f2e78529eb8ed2491ca36b'),
    'srrip-0.4-spmv': (18407, 3136, '4073aa443ac8b97126c0d075d8763459039ddd07cee6d92346643aaaaf4b46ef'),
    'srrip-0.8-gather': (1714, 336, 'ce59fe6fbc7fd846e21d9ed2a851b42e77f35082b715cc45b6fe1969932e4d7a'),
    'srrip-0.8-histogram': (1808, 456, '4c406e0c8695c38a20d3f9cd26a570fd590faa2647b7a830b24f09d208c25b6e'),
    'srrip-0.8-pointer_chase': (1325, 184, '326dbcc31c298355cb7f34e71843619985ee2fba4cbbcc7a6e25f8cbb1a2f3ed'),
    'srrip-0.8-spmv': (15156, 3136, '18048810609523cfd62416b50497172a291d621090eaa3b8cd18b93c4dd62777'),
    'virec-2core-0.4-spmv': (18880, 6272, '3aa59b75bd80b5473065c5072f758b0f48895e1be9d9d55c1be51048ba1d7b17'),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_digest(name):
    assert observe(name) == GOLDEN[name]


def test_golden_covers_every_case():
    assert set(GOLDEN) == set(RUN_CASES) | set(CORE_CASES)


if __name__ == "__main__":
    for case in sorted(set(RUN_CASES) | set(CORE_CASES)):
        print(f"    {case!r}: {observe(case)!r},")
