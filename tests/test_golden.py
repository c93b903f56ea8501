"""Byte-neutral gate: fixed small CLI runs must keep their exact CSV bytes.

Each command writes into a temporary directory and the SHA-256 of every
output file is compared with a digest recorded before the refactor it
guards: the single-selection engine's rebuild around one policy record and a
sort-free kernel, and, for the tau-policy and absolute-gap sweep commands,
the move of every sweep to (AlgorithmSpec, GapSpec) cells on one batch, and,
for the df = 1, factor = 1e6, pareto absolute-gap and n <= 2 commands, the
batch builder's move to row-wise draws normalized once per batch, and, for
the l-select commands (auto and raw-unit absolute gaps, L = 5, L = n - 1)
and the chi-squared and superstar ``--dump-profiles`` files, the move of
l-select and the profile dump from one instance at a time to chunked batch
rows, and, for the ``frontier`` CSVs and the ``bounds --which rc`` reports,
the move of the worst-case gap index from a scan over k to its closed form,
k = 2, and, for the l-select commands at n = 200 (four kernel chunks of 81
rows or fewer when pinned, one chunk since a chunk is one row block of 327
rows: exponential L = 2, chi-squared L = 5, tau = 0 with no
pre-tau element, L = 199, pareto L = 10, whose normalized weights underflow
to 0 so that most rows' L-th pre-tau weight is a tied 0, and an absolute
gap above every weight), the move of the l-select kernel from ranking whole
rows to ranking only the elements that can be or decide a hit, and, for the
two n = 200, 700-iteration commands (the only ones past one row block of
65,536 elements: a k sweep at tuned taus, whose joined threshold state is
narrowed from tau 0.076 up to 0.423, and a robust rule at tau 0.05), the
move of both row kernels' states to one entry layout joined field by field
across row blocks, and, for the chi-squared l-select dump at n = 200 (three
chunks of 81, 81 and 38 rows when pinned, one chunk since) and its replay,
the build of each batch in one loop over its row blocks, and, for the same
dump at 700 iterations (three chunks of 327, 327 and 46 rows) and its
replay, the seeding of each stream by one write of its PCG64 state and the
move of l-select to one row block per chunk, and, for the pareto k sweeps at
tuned taus of the robust rule (gamma 0.05) and the strict one, the only
commands that run a late phase or the strict comparison at a narrowed tau,
the move of the tests to one adapter of the engine. A refactor of generation, batching, the kernels or the
bound formulas must leave every digest unchanged.

The digests are pinned to numpy 2.4 on x86-64: the draws come from numpy's
PCG64 streams and its float routines, so another numpy release or platform
may change the last bits of a weight and hence a digest. Recompute them at
the parent commit before comparing on such a setup.

l-select with an absolute gap (``--gap-value``) is pinned on an exponential
and a factor-1e6 superstar instance set: the gap is in raw weight units and
must be rescaled with each raw instance's log maximum, so a gap read as
already normalized would change both digests.

No CLI command reaches ``simulate_fixed_profile``, so its arrays are pinned
apart: a digest over every returned key, with its dtype, shape and bytes,
recorded before the fixed-profile kernel moved from the broadcast row kernel
to a column sweep over one weight vector, and re-pinned when the record
dropped its unread ``accept_time`` field, to the digest of the other five
fields (``accept_index``, ``ratio``, ``select_best``, ``none`` and the raw
``accept_weight``) computed on the code before that change. The cases cover all five rules,
n in {1, 2, 5, 200}, tied weights, a zero weight, all-zero profiles, tau = 0,
scalar and per-iteration gaps, and a 60,000 x 200 run, which is three chunks.
"""

import hashlib

import numpy as np
import pytest

from gapsecretary import cli
from gapsecretary.core import WeightProfile
from gapsecretary.montecarlo import AlgorithmSpec, simulate_fixed_profile

N, ITERS = "50", "300"
SIM = ["simulate", "--n", N, "--iters", ITERS, "--tau", "0.2"]
# 300 instances of 200 elements: one chunk of the l-select kernel
SIM_200 = ["simulate", "--n", "200", "--iters", ITERS]
RULES = {
    "classical": ["--algo", "classical"],
    "strict-classical": ["--algo", "strict-classical"],
    "exact-gap": ["--algo", "exact-gap", "--k", "5"],
    "bounded": ["--algo", "bounded", "--k", "5", "--epsilon", "0.05"],
    "robust": ["--algo", "robust", "--k", "5", "--gamma", "0.1"],
}
FAMILIES = {"pareto": "3", "exp": "5", "chisq": "7", "exp-superstar": "11"}

COMMANDS = {
    **{
        f"simulate/{fam}/{rule}": SIM + ["--family", fam, "--seed", seed] + flags
        for fam, seed in FAMILIES.items()
        for rule, flags in RULES.items()
    },
    "simulate/exp/exact-gap/gap-value": SIM
    + ["--family", "exp", "--seed", "13", "--algo", "exact-gap", "--gap-value", "0.5"],
    "sweep/sigma": [
        "sweep", "--sweep", "sigma", "--from", "0", "--to", "1.5", "--step", "0.5",
        "--family", "exp", "--n", N, "--iters", ITERS, "--algo", "robust",
        "--tau", "0.2", "--gamma", "0.05", "--k", "2,10,50", "--seed", "7",
    ],
    "sweep/k": [
        "sweep", "--sweep", "k", "--from", "2", "--to", "50", "--step", "12",
        "--family", "chisq", "--n", N, "--iters", ITERS, "--algo", "exact-gap",
        "--tau", "0.2", "--tau-policy", "min", "--seed", "7",
    ],
    "simulate/exp/l-select": SIM
    + ["--family", "exp", "--seed", "5", "--algo", "l-select", "--L", "3"],
    "simulate/exp/exact-gap/tau-from-k": SIM
    + ["--family", "exp", "--seed", "19", "--algo", "exact-gap", "--k", "5", "--tau-from-k"],
    "simulate/exp/exact-gap/tau-policy-min": SIM
    + ["--family", "exp", "--seed", "23", "--algo", "exact-gap", "--k", "20", "--tau-policy", "min"],
    "sweep/sigma/gap-value": [
        "sweep", "--sweep", "sigma", "--from", "0", "--to", "1.5", "--step", "0.5",
        "--family", "exp", "--n", N, "--iters", ITERS, "--algo", "exact-gap",
        "--tau", "0.2", "--gap-value", "3", "--k", "2,10", "--seed", "29",
    ],
    "sweep/k/tau-from-k": [
        "sweep", "--sweep", "k", "--from", "2", "--to", "50", "--step", "16",
        "--family", "pareto", "--n", N, "--iters", ITERS, "--algo", "exact-gap",
        "--tau-from-k", "--seed", "31",
    ],
    "sweep/k/robust-sigma": [
        "sweep", "--sweep", "k", "--from", "2", "--to", "50", "--step", "16",
        "--family", "exp", "--n", N, "--iters", ITERS, "--algo", "robust",
        "--tau", "0.2", "--gamma", "0.1", "--sigma", "1.3", "--seed", "37",
    ],
    "sweep/k/gap-value": [
        "sweep", "--sweep", "k", "--from", "2", "--to", "50", "--step", "16",
        "--family", "exp", "--n", N, "--iters", ITERS, "--algo", "bounded",
        "--tau", "0.2", "--epsilon", "0.5", "--gap-value", "3.5", "--seed", "41",
    ],
    "simulate/chisq/exact-gap/df-1": SIM
    + ["--family", "chisq", "--df", "1", "--seed", "43", "--algo", "exact-gap", "--k", "5"],
    "simulate/exp-superstar/bounded/factor-1e6-gap-value": SIM
    + [
        "--family", "exp-superstar", "--superstar-factor", "1e6", "--seed", "47",
        "--algo", "bounded", "--gap-value", "3e6", "--epsilon", "1e6",
    ],
    "simulate/pareto/exact-gap/gap-value": SIM
    + ["--family", "pareto", "--seed", "53", "--algo", "exact-gap", "--gap-value", "0.5"],
    "simulate/pareto/exact-gap/n-2": [
        "simulate", "--n", "2", "--iters", ITERS, "--tau", "0.2", "--family", "pareto",
        "--seed", "59", "--algo", "exact-gap", "--k", "2",
    ],
    "simulate/exp-superstar/exact-gap/n-2": [
        "simulate", "--n", "2", "--iters", ITERS, "--tau", "0.2", "--family", "exp-superstar",
        "--seed", "61", "--algo", "exact-gap", "--k", "2",
    ],
    "simulate/exp/classical/n-1": [
        "simulate", "--n", "1", "--iters", ITERS, "--tau", "0.2", "--family", "exp",
        "--seed", "67", "--algo", "classical",
    ],
    "simulate/exp/l-select/gap-value": SIM
    + ["--family", "exp", "--seed", "71", "--algo", "l-select", "--L", "2", "--gap-value", "2.0"],
    "simulate/exp-superstar/l-select/factor-1e6-gap-value": SIM
    + [
        "--family", "exp-superstar", "--superstar-factor", "1e6", "--seed", "73",
        "--algo", "l-select", "--L", "2", "--gap-value", "3.5",
    ],
    "simulate/chisq/l-select/L-5": SIM
    + ["--family", "chisq", "--seed", "79", "--algo", "l-select", "--L", "5"],
    "simulate/pareto/l-select": SIM
    + ["--family", "pareto", "--seed", "83", "--algo", "l-select", "--L", "3"],
    "simulate/exp-superstar/l-select": SIM
    + ["--family", "exp-superstar", "--seed", "89", "--algo", "l-select", "--L", "2"],
    "simulate/exp/l-select/L-n-minus-1": [
        "simulate", "--n", "6", "--iters", ITERS, "--tau", "0.2", "--family", "exp",
        "--seed", "97", "--algo", "l-select", "--L", "5",
    ],
    # four chunks when pinned; one since an l-select chunk is one row block
    "simulate/exp/l-select/n-200/four-chunks": SIM_200
    + ["--tau", "0.2", "--family", "exp", "--seed", "107", "--algo", "l-select", "--L", "2"],
    "simulate/chisq/l-select/n-200/L-5": SIM_200
    + ["--tau", "0.2", "--family", "chisq", "--seed", "109", "--algo", "l-select", "--L", "5"],
    "simulate/exp/l-select/n-200/tau-0": SIM_200
    + ["--tau", "0", "--family", "exp", "--seed", "113", "--algo", "l-select", "--L", "2"],
    "simulate/exp/l-select/n-200/L-199": SIM_200
    + ["--tau", "0.2", "--family", "exp", "--seed", "127", "--algo", "l-select", "--L", "199"],
    "simulate/pareto/l-select/n-200/L-10": SIM_200
    + ["--tau", "0.2", "--family", "pareto", "--seed", "131", "--algo", "l-select", "--L", "10"],
    "simulate/exp/l-select/n-200/gap-value-above-all": SIM_200
    + [
        "--tau", "0.2", "--family", "exp", "--seed", "137", "--algo", "l-select", "--L", "2",
        "--gap-value", "100",
    ],
    # 700 instances of 200 elements: three row blocks of 327 rows or fewer,
    # whose states are joined
    "sweep/k/tau-from-k/n-200/three-blocks": [
        "sweep", "--sweep", "k", "--from", "2", "--to", "50", "--step", "16",
        "--family", "exp", "--n", "200", "--iters", "700", "--algo", "exact-gap",
        "--tau-from-k", "--seed", "59",
    ],
    "simulate/chisq/robust/n-200/three-blocks": [
        "simulate", "--family", "chisq", "--n", "200", "--iters", "700", "--algo", "robust",
        "--k", "5", "--gamma", "0.1", "--tau", "0.05", "--seed", "61",
    ],
    # robust's late phase and the strict comparison at taus narrowed from
    # 0.076 up to 0.423, over pareto's tied zeros
    **{
        f"sweep/k/tau-from-k/pareto/{rule}": [
            "sweep", "--sweep", "k", "--from", "2", "--to", "50", "--step", "16",
            "--family", "pareto", "--n", N, "--iters", ITERS, "--tau-from-k", "--seed", "61",
            *flags,
        ]
        for rule, flags in (("robust", ["--algo", "robust", "--gamma", "0.05"]),
                            ("strict-classical", ["--algo", "strict-classical"]))
    },
    "frontier": ["frontier"],
    "frontier/k-2": ["frontier", "--k-aggregation", "2"],
    "frontier/k-50": ["frontier", "--k-aggregation", "50"],
}

# bounds runs: the digest of the JSON report each one prints
REPORTS = {
    "bounds/rc/tau-0.2/gamma-0.6": ["bounds", "--which", "rc", "--tau", "0.2", "--gamma", "0.6"],
    "bounds/rc/tau-0.05/gamma-0.9": ["bounds", "--which", "rc", "--tau", "0.05", "--gamma", "0.9"],
    # the gap term binds
    "bounds/rc/tau-0.05/gamma-0": ["bounds", "--which", "rc", "--tau", "0.05", "--gamma", "0"],
}

# --dump-profiles runs: the digest of the profile file each one writes
DUMPS = {
    "dump/chisq": SIM + ["--family", "chisq", "--seed", "101", "--algo", "classical"],
    "dump/exp-superstar": SIM
    + [
        "--family", "exp-superstar", "--superstar-factor", "1e6", "--seed", "103",
        "--algo", "l-select", "--L", "2",
    ],
}

GOLDEN = {
    "bounds/rc/tau-0.05/gamma-0": "197fbc90bf584c5168a76673aef160a1ec9b21a88cc4a73c62a9c9b68ed15f4d",
    "bounds/rc/tau-0.05/gamma-0.9": "648069fc6399cb64cdb7589fa5d96210d6a4cabb19f3cf96c4eef574c73e1e58",
    "bounds/rc/tau-0.2/gamma-0.6": "69d76e263e6eed98504b3f964bb325d5d77eae00b3a8721343a72888ac878b1f",
    "dump/chisq": "8996f0a9fcb502ae27eefa20a76a3c23b32413a45e5473fb750fe2c99fcf33ab",
    "dump/chisq/profiles": "4ecdbed1358f9368a3a9422be3cc698f30536a7ed53f01c0c562bc72c8504166",
    "dump/exp-superstar": "7b9078e88ab34f506e76cfbc8390e7bd69f794e8ff5a8709a8edec0b074922c1",
    "dump/exp-superstar/profiles": "8f6f5a91bc823fe866214b8260c0ac8ae4f13e21ee814410861bdc22332bf661",
    "frontier": "7e3fc1db4d3567715bb3da08c93a113eb1b4c7e41f3636a5ae8bd10d529c3d5b",
    "frontier/k-2": "7cc1bd5b5021dd542453676d32b93b5168f4b1d01b469f66816cb9977e9b9d42",
    "frontier/k-50": "adb7ae82e86b04ffb6076ffab5195e3584bdfb990849d59e00226d6464c187c5",
    "replay/generated": "32bb873d791f86bddfe8e280166d861e345ac1ec202229a49311e5f2f521dfe4",
    "replay/l-select/n-200/200-iters/generated": "9843490806cda7ed0a34d7510a248fff4e4860f71f952f6e64d06c31120c0b67",
    "replay/l-select/n-200/200-iters/profiles": "6a3b04aed0bf13dd4533d13310594532646ff8e627da8ccd41d1aeb3411fdb91",
    "replay/l-select/n-200/700-iters/generated": "aee5312a7fb237527bf2abd091e72a723ca16da2369d29ec6c2f7365f2076c8e",
    "replay/l-select/n-200/700-iters/profiles": "aa27a3126d9b756e7150e055a658d969890a507798cad14d43aef5bfee7dcab9",
    "replay/profiles": "217ed026ba31445dc4163f7bf8debf90cbff7e6e0d1271d28221ed8155ffa5e3",
    "simulate/chisq/bounded": "8ecea6c63e6bf5f0e64d4d60165878fcb16ea66326d9fdd45e15c8542a99f906",
    "simulate/chisq/classical": "9cfc43eede1ed0bb1e865f616fdfc1aa5219d917f8953cb53221a2bb438c81eb",
    "simulate/chisq/exact-gap": "17f297e78a52a5c44ea012fd750e948ae9bd7e93f5e67c66cba69b34ac5414ee",
    "simulate/chisq/exact-gap/df-1": "839fa7b7073f8628c95fda0d86188d1ae4e36d1d734f0812f2770aa3772e8dab",
    "simulate/chisq/l-select/L-5": "44ac4afebda4ca26d154da94372ecb06d70d8e0d7c89becbf13eb53b9021f771",
    "simulate/chisq/l-select/n-200/L-5": "0dcaabf17b7fe3a080ad7c959e52a14e03eac2a65816352605bfe664ac803be5",
    "simulate/chisq/robust": "2f4689dbce3b4f821294a2f944c9d556910318afcc9bd4500327994b85b680a6",
    "simulate/chisq/robust/n-200/three-blocks": "8c49e49220027dc1ebbce363382a02dec7e15ce98f4f9dc9a1501da8044c0674",
    "simulate/chisq/strict-classical": "08107ac32644f6a40acaa84f9af7d7b25ceebbb38857454ecbc14144a1330f7c",
    "simulate/exp-superstar/bounded": "d346fb143dcf71318dd945cecfa0c70b58cb4adcdade733658613e9b01217a29",
    "simulate/exp-superstar/bounded/factor-1e6-gap-value": "e738dfaa7490b687da0ea32fe1c98f7ab0f59d990471c7db1c7d0f0047e8d53b",
    "simulate/exp-superstar/classical": "dbbbc7590046c25923579889cda6b8ba40fa66ba17d360d8c78a4d7645260299",
    "simulate/exp-superstar/exact-gap": "c8f75ae53b9d5a8dc1a65a10841fb7c036a857edd50d81488e9232acc3dedadc",
    "simulate/exp-superstar/exact-gap/n-2": "4cc048ed77ae27977fa7b078ab4700fe19cb8339b92364cc287376336c8a8e4b",
    "simulate/exp-superstar/l-select": "8522cd539a3fb5bca877775e616c41e5596f48b0eeb7ae47acf04f5d8dfcbecb",
    "simulate/exp-superstar/l-select/factor-1e6-gap-value": "d3b2d23db740a65937a8fc90a1c565eb1d53276f225462f0cb14b39a0c62ba07",
    "simulate/exp-superstar/robust": "79480bacf9ed9223cde65ac3f20bd767db861919e4a390d948e316e6732e84cd",
    "simulate/exp-superstar/strict-classical": "cef800fb54c8e0bcc6982f66692a587786e3c09f6d14a460b03ebe9d3e1abac6",
    "simulate/exp/bounded": "f7c5a7fb110154d41fa60056f630fabc3bb2326274f593add2e87a8a71be0c8f",
    "simulate/exp/classical": "43f0c0d2bcdb80162f93846ab7df66c3f16849a7c1247ec28982c5d6c001b640",
    "simulate/exp/classical/n-1": "914d9f7dc711f659aed0548b067933e307aa0798fb6de0de1b6860e6835540b6",
    "simulate/exp/exact-gap": "ef470cd5d1222987a6fa4211afdcc7e41a2f21ff668ec2c983e7952c99c5159b",
    "simulate/exp/exact-gap/gap-value": "9acc915e35b8284041298d5c6a227ad9d831ec134f511dc9b291eb25b96adcbf",
    "simulate/exp/exact-gap/tau-from-k": "91f5a3da63968ae891bafbc8267a55885881392db35fe996e0c1eff7d0e5a8aa",
    "simulate/exp/exact-gap/tau-policy-min": "5dbf699b66339da6bd61f9754912bb70ccb2769b5db0b914f25de8d22948a285",
    "simulate/exp/l-select": "7a8c67252a56e32b3067708c71cff6369de355caa05c99b84e78c6d124f3c430",
    "simulate/exp/l-select/L-n-minus-1": "899e1b8ddf0a1bdae0deee268b29a08020eda9970860871ceaf7d21745eefc28",
    "simulate/exp/l-select/gap-value": "31c6c900ce05897328c0c5e08df726f158ac7910faee6c36cdd0db6df991184b",
    "simulate/exp/l-select/n-200/L-199": "36f1e1be4378a477d849d833136810b8f029d1bbef3b04b7c44ad5d9deb4f306",
    "simulate/exp/l-select/n-200/four-chunks": "3aca1c09cb9a0b0a1cf80168a47dea5bac7d0cdb9692c4a2084152fbbf48ad02",
    "simulate/exp/l-select/n-200/gap-value-above-all": "2de09c327706daf8a03a05e76007e2072efb93d1c84c9b2006b5137350f86c7b",
    "simulate/exp/l-select/n-200/tau-0": "f2d34d24fe8818cd99858ec0997ec5db904c76b894854ab0386fa09e735e0aa0",
    "simulate/exp/robust": "5586bb8f9c739bea084a9c57a450edf58c1370e5c2e724a1210b080333cb25b1",
    "simulate/exp/strict-classical": "da0381d501b599d676b0f3ecf66dd2dc8da476af80e9b44663114890946454ea",
    "simulate/pareto/bounded": "883774b63093ecac12d071e77219e4301d204f56415911f17aec6e8166e02bb5",
    "simulate/pareto/classical": "b6a8887793da643f3890131e4541737b51a0f0d81d325fb47db0a2dfc25c2dcf",
    "simulate/pareto/exact-gap": "a37bfba9722b6892e777e42f6e7cd88d9435d44178176878d4b072116378a4d2",
    "simulate/pareto/exact-gap/gap-value": "2cbf8d8451d690328dd0ccbf43fec9728e609ad7b840c37e4a90972a384f49b0",
    "simulate/pareto/exact-gap/n-2": "e0382827974f4914f553eefa069d19e735a780216760968452b65748a47321f7",
    "simulate/pareto/l-select": "6790b1a9ef701a4acb9d036c4ab96499c1c8001565fb70d090b6d4e9c88fdd83",
    "simulate/pareto/l-select/n-200/L-10": "3191f65e671121c5a3c92748de1c7d5ce16375f9f5a5c694e3a5e60afe89f2ee",
    "simulate/pareto/robust": "c1a22bc43220b5878506e7a9dbac731600acf235fa15a614dddc203de5bd483d",
    "simulate/pareto/strict-classical": "2f7e40c2981565d864f73fd2ca3a68ebbe32f944491a13f753e30a05e1dd8bc8",
    "sweep/k": "f1ebdb539eac38bc6d56e5d307031b36f81e04d4e997af82846b879ca69ee939",
    "sweep/k/gap-value": "0e1f84f326dd30cd8819ec70718faf472adda3846e5b9f344f0c8f31d89b9d6c",
    "sweep/k/robust-sigma": "63c754bef00fb6e745efd0d69700b5346aed707b818f449647d105c6fc91f8c3",
    "sweep/k/tau-from-k": "2a2bce5a403994eb0b57ab66b6833ad9b9f569258262846ab32e095eb74f77eb",
    "sweep/k/tau-from-k/pareto/robust": "7a658dcfd338589548b728d069efcc36443bfc2504b163d31f9b4a83aa4bfb05",
    "sweep/k/tau-from-k/pareto/strict-classical": "aaddc59015c87348041be7b1c35b73ab09f32dbc14cc042b3310cbd1b31fe8f8",
    "sweep/k/tau-from-k/n-200/three-blocks": "63609c061ba572517700b747d5c6c3cb5c70009a159f8f9cd2c7fd5b66e83a22",
    "sweep/sigma": "2c8cdc4f4e3f36c41dbc96e1ada89eb2ab3c25652b7a0299bc5cfd6e2e8efe05",
    "sweep/sigma/gap-value": "773a106f68499f419523ad8fcf25724bc8cde17f69127006c5ca75f54e8bcbae",
}


def _digest(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_csv_bytes_unchanged(name, tmp_path):
    out = tmp_path / "out.csv"
    assert cli.main(COMMANDS[name] + ["--out", str(out)]) == 0
    assert _digest(out) == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(REPORTS))
def test_report_bytes_unchanged(name, capsys):
    assert cli.main(REPORTS[name]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(DUMPS))
def test_dump_profiles_bytes_unchanged(name, tmp_path):
    out, dumped = tmp_path / "out.csv", tmp_path / "profiles.txt"
    assert cli.main(DUMPS[name] + ["--dump-profiles", str(dumped), "--out", str(out)]) == 0
    assert _digest(dumped) == GOLDEN[f"{name}/profiles"]
    assert _digest(out) == GOLDEN[name]


def _dump_and_replay(tmp_path, run, family, name):
    """Run ``run`` on ``family`` with ``--dump-profiles``, then replay the
    dumped profiles under the same flags without ``--family``; check the
    dump's and the CSV's digests and that the replay writes the same CSV."""
    dumped = tmp_path / "profiles.txt"
    generated, replayed = tmp_path / "generated.csv", tmp_path / "replayed.csv"
    argv = run + ["--family", family]
    assert cli.main(argv + ["--dump-profiles", str(dumped), "--out", str(generated)]) == 0
    argv = run + ["--profiles-file", str(dumped)]
    assert cli.main(argv + ["--out", str(replayed)]) == 0
    assert _digest(dumped) == GOLDEN[f"{name}/profiles"]
    assert _digest(generated) == GOLDEN[f"{name}/generated"]
    # the replay names the family by its flag, as the generated run does
    assert replayed.read_bytes() == generated.read_bytes()


def test_dump_and_replay_bytes_unchanged(tmp_path):
    rule = ["--algo", "robust", "--k", "5", "--gamma", "0.1", "--seed", "17"]
    _dump_and_replay(tmp_path, SIM + rule, "pareto", "replay")


def test_dump_and_replay_across_l_select_chunks(tmp_path):
    # an l-select chunk is one row block: 700 instances of 200 elements are
    # three chunks of 327, 327 and 46 rows, drawn or replayed; 200 instances
    # are one chunk, pinned when they were three chunks of 81, 81 and 38 rows
    rule = ["--algo", "l-select", "--L", "5", "--tau", "0.1", "--seed", "13"]
    for iters in ("700", "200"):
        run = ["simulate", "--n", "200", "--iters", iters] + rule
        (tmp_path / iters).mkdir()
        _dump_and_replay(tmp_path / iters, run, "chisq", f"replay/l-select/n-200/{iters}-iters")


@pytest.mark.parametrize("name", ["simulate/exp/exact-gap/tau-from-k", "sweep/k/tau-from-k"])
@pytest.mark.parametrize(
    "spelling",
    [["--tau-policy", "from-k"], ["--tau-policy", "fixed", "--tau-from-k"]],
    ids=["tau-policy", "later-flag-wins"],
)
def test_tau_from_k_spellings(name, spelling, tmp_path):
    # --tau-from-k is an alias of --tau-policy from-k
    argv = [a for a in COMMANDS[name] if a != "--tau-from-k"] + spelling
    out = tmp_path / "out.csv"
    assert cli.main(argv + ["--out", str(out)]) == 0
    assert _digest(out) == GOLDEN[name]


# simulate_fixed_profile cases: (linear weights, rule, iterations, seed, gap);
# a gap of ("uniform", hi, seed) is a per-iteration array drawn uniform on
# [0, hi) from that seed
def _exponential(n, seed):
    return np.random.default_rng(seed).standard_exponential(n).tolist()


FIXED_PROFILE = {
    "classical/n-1": ([2.5], AlgorithmSpec("classical", tau=0.3), 4000, 1, 0.0),
    "classical/n-5/tau-0": ([4.0, 1.0, 2.5, 3.0, 0.5], AlgorithmSpec("classical", tau=0.0), 4000, 2, 0.0),
    "strict-classical/n-2/tied": ([3.0, 3.0], AlgorithmSpec("strict-classical", tau=0.4), 4000, 3, 0.0),
    "strict-classical/n-5/tied": (
        [2.0, 1.0, 1.0, 0.9, 0.7], AlgorithmSpec("strict-classical", tau=0.359), 4000, 4, 0.0,
    ),
    "exact-gap/n-2": ([10.0, 4.0], AlgorithmSpec("exact-gap", tau=0.2), 4000, 5, 5.0),
    "exact-gap/n-5/gap-array": (
        [4.0, 1.0, 2.5, 3.0, 0.5], AlgorithmSpec("exact-gap", tau=0.25), 4000, 6, ("uniform", 5.0, 60),
    ),
    "bounded/n-5/tied-and-zero": (
        [2.0, 2.0, 2.0, 1.0, 0.0], AlgorithmSpec("bounded", tau=0.3, epsilon=0.3), 4000, 7, 0.9,
    ),
    "robust/n-5": (
        [4.0, 1.0, 2.5, 3.0, 0.5], AlgorithmSpec("robust", tau=0.35, gamma=0.25), 4000, 8, 1.5,
    ),
    "robust/n-5/tied/gap-array": (
        [3.0, 1.0, 3.0, 2.0, 1.0], AlgorithmSpec("robust", tau=0.2, gamma=0.4), 4000, 9, ("uniform", 4.0, 90),
    ),
    "classical/all-zero": ([0.0, 0.0, 0.0], AlgorithmSpec("classical", tau=0.3), 4000, 10, 0.0),
    "exact-gap/all-zero": ([0.0, 0.0], AlgorithmSpec("exact-gap", tau=0.3), 4000, 11, 0.5),
    "bounded/n-200": (_exponential(200, 12), AlgorithmSpec("bounded", tau=0.2, epsilon=0.2), 2000, 12, 0.7),
    "robust/n-200/gap-array/three-chunks": (
        _exponential(200, 13), AlgorithmSpec("robust", tau=0.2, gamma=0.1), 60_000, 13,
        ("uniform", 1.5, 130),
    ),
}

FIXED_PROFILE_GOLDEN = {
    "bounded/n-200": "384d71aa5fb7720901681b40598c842747570208b8d5632db27bcb2cf230f030",
    "bounded/n-5/tied-and-zero": "895778089b36c3fde2ded577c909ce8dd7a573bba479e1f437dd658dce1def28",
    "classical/all-zero": "072e1b2a8889ab854690f6bbfffbeb22bc3d6540d699524d0b2b5b9be1544a17",
    "classical/n-1": "ece95afaf8b3b13484564a73437677fbb2bf8e67ba192e0ac297c5d2fe6cfc2d",
    "classical/n-5/tau-0": "eafcb560fc9c37175ebf057aa52359aa6973d11947a8bfb61261a1a8d4993bf9",
    "exact-gap/all-zero": "6efc70ea72d481d4fd47d5e58f5b780df17330bfcfd86c7a54098d5c7f708207",
    "exact-gap/n-2": "0a9d5afdcf0f7bd0d2f2510f9c6a9faddb6f26568488ee1a33011da284e16c95",
    "exact-gap/n-5/gap-array": "73beb6cbcdaf579158659891e59bda44a7cc82906e6d45725ad9999012765014",
    "robust/n-200/gap-array/three-chunks": "c8a8f984ec5dbdfc8aab20f96cac145abd76ea798fc4f514d781e5828609168d",
    "robust/n-5": "0d467800d2e69278cbfe3479c3a760c4ee2c3c26ce61cfc3f3d7acd5eddafee5",
    "robust/n-5/tied/gap-array": "61546a5f070c2b6c1ecdbc91368601f08081e866bf007c3b1296faef9e9e64b4",
    "strict-classical/n-2/tied": "73251d41f906e13d06277cfb6ebcea6d808d76d10f12f5ed63355dd3856f5c16",
    "strict-classical/n-5/tied": "fed04a339b9e67c0baaed22f636be3121cc81a09bd38b5b34c54407e530c392f",
}


def _array_digest(out: dict) -> str:
    """SHA-256 over every key of a result dict with its array's dtype, shape
    and bytes, keys in sorted order."""
    h = hashlib.sha256()
    for key in sorted(out):
        a = np.ascontiguousarray(out[key])
        h.update(f"{key}|{a.dtype.str}|{a.shape}|".encode())
        h.update(a.tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(FIXED_PROFILE))
def test_fixed_profile_arrays_unchanged(name):
    weights, algorithm, iterations, seed, gap = FIXED_PROFILE[name]
    if isinstance(gap, tuple):
        _, hi, gap_seed = gap
        gap = np.random.default_rng(gap_seed).uniform(0.0, hi, iterations)
    out = simulate_fixed_profile(WeightProfile.from_weights(weights), algorithm, iterations, seed, gap)
    assert _array_digest(out) == FIXED_PROFILE_GOLDEN[name]
