"""Golden digests of canonical output.

Each digest pins the exact bytes the CLI writes for a fixed configuration
and master seed, so a refactor that silently changes the random stream, a
query or session count, a bound, or the record format fails here.  Update a
digest only in a change that alters the stream or the records on purpose,
and record that change in CHANGES.md.
"""

import hashlib

import pytest

from matchleak.cli import main

BENCH_DIGEST = "59feb93b6fa7d1ed50d08ca9b19e7c3c46f852c34ceb682314a7ea3670dce4c1"

# name -> (CLI flags, CSV digest, JSONL digest); every attack once, plus the
# greedy-cover search of the minimal-leak attack, the three below-threshold
# attacks on a binary alphabet, and uniform single-error, uniform
# multi-error and rare-first multi-error accumulation
RECORD_CASES = {
    "below_distance": (
        "--attack below_distance --q 3 --n 6 --epsilon 2",
        "36f59eb50fbced43e98da6df8f14de7de44e75122fb44e322e7791e80d7939b8",
        "a5ad96c0f987895e6e7f003d88132d3e41ff21f029bd2b6c19ca49d265a468e8",
    ),
    "below_distance_q2": (
        "--attack below_distance --q 2 --n 12 --epsilon 3",
        "ca9a71ad5fadcce35835b8970df73d7a7028e1f3c3073add770b0d10df65053f",
        "b6ca88311032faa83146d1c59e6b264c1a941e93869ad6b0af4751474d3727b0",
    ),
    "below_positions_q2": (
        "--attack below_positions --q 2 --n 12 --epsilon 3",
        "49f44e075396df0614ac85d55b5451b5e9446a093e218ef1057dcbc3abdbd6a1",
        "0c065b1ead4e6397fc5079fa3209c997ab7fb0f96795b7e0caea7971b2f994c0",
    ),
    "below_posvalues_q2": (
        "--attack below_posvalues --q 2 --n 12 --epsilon 3",
        "49f44e075396df0614ac85d55b5451b5e9446a093e218ef1057dcbc3abdbd6a1",
        "0c065b1ead4e6397fc5079fa3209c997ab7fb0f96795b7e0caea7971b2f994c0",
    ),
    "below_positions": (
        "--attack below_positions --q 4 --n 5 --epsilon 2",
        "619adf83e9d6b2c77c2aaa3d0a678d02c32fddccc79da91c4f257a6fd724f7ee",
        "15d7e9d93915023e57c3871dc12ea07582b76d3bfbdd99b6d5405c429b5c6efe",
    ),
    "below_posvalues": (
        "--attack below_posvalues --q 3 --n 6 --epsilon 2",
        "07ce067d9bae2b2564e840b5a1ea761f34f13c89265da57f777634e42a9ebcf9",
        "f6651f1580c1dc44c02d4e7bb94bcdc2aec61e5ebd9dff5536cf575816b2bf2e",
    ),
    "minimal": (
        "--attack minimal --q 2 --n 10 --epsilon 2",
        "d69303ed6c40447fdb554705214fb37f1c33d41eb07c9437dd8bafba944a4ae8",
        "c4c2df7fd34344b28bd12d1e819587b7d798d3905d879787c5b3ab759208ef9f",
    ),
    "minimal_greedy": (
        "--attack minimal --q 2 --n 9 --epsilon 2 --strategy greedy",
        "53a8d3a5afc3d0479f98db3f6000b5e3256bab46e4cc5fc684e56310c6d573b3",
        "b302d0f39040ea22123f4357051fa7579e81f2092a242c534c9f4a6f35489084",
    ),
    "both_distance": (
        "--attack both_distance --q 4 --n 12 --epsilon 3",
        "c7e7b201740fca09ffb2c112b1506edf24dd5588421083a013d51640f2270cca",
        "f154e2ef80d28d4dc1fc50d6d60f986005e34f6997700b69f225649e9632856a",
    ),
    "both_positions": (
        "--attack both_positions --q 5 --n 10 --epsilon 3",
        "e6144662dbbdcedb53052063ea8f06b5686a98956708e3e0790572967c00fbe6",
        "08fef749bce45e591602b297ac5f15caee674330516b12648aa0211f947e12ec",
    ),
    "both_posvalues": (
        "--attack both_posvalues --q 5 --n 10 --epsilon 3",
        "f3c0ee799d909bbdc6e6900a3e94d960c19bc39cb5b0d1656cd7c9ab0b0791bf",
        "116a26ac73866b934e91a469a0de6181295103f27965196c8a70ee7862f34d99",
    ),
    "accumulation": (
        "--attack accumulation --q 2 --n 10 --epsilon 2 --alpha 1.5",
        "3645f93ea4853373d4977fd08dd1dfa70ea7c3e10f3689ef365dd1355c24500f",
        "4a5fcae90ff1a7fdd826fe52a1d78a71b25a8e0c9b30dffb03fb796f46982931",
    ),
    "accumulation_uniform": (
        "--attack accumulation --q 2 --n 16 --epsilon 3",
        "93f7f7902fd85444646546c0628d37092f88cda9ab0890e8f8e078c78565ba63",
        "92482e2e2222cbab35194c23597207989cff672ff4351934a6d8e737c2377fe9",
    ),
    "accumulation_uniform_multi": (
        "--attack accumulation --q 2 --n 16 --epsilon 3 --session-shape multi",
        "e96db9e92dfa9faad182a31b1e74a92a33e97fb4a22ba22cfb468db47757c5dd",
        "55583af6b23d66a150c4480a028edaba3c8b64a1202294dda4599ebbeea0d58c",
    ),
    "accumulation_rare_multi": (
        "--attack accumulation --q 2 --n 16 --epsilon 3 --alpha 1.5 --session-shape multi",
        "1bd239824e36a73e0742f017a68b6d72d2b0f5cc365f01404995f7cf34b83572",
        "f6be1fe35c72476771291c9cf51722b1deb455dff759bfef68e24ba2f37e3e9e",
    ),
    "fault_control": (
        "--attack fault_control --q 2 --n 11 --epsilon 4",
        "5ab7fb7af5a5c283386f5796353cd3b6f29db59ad7de974fd7a174eed3a3b875",
        "cba6e1afce731e82f27e45e736aed2fcf1bc2d791b7f97de346584103cb3464d",
    ),
}

# name -> (CLI flags, digest of the --audit stream): every oracle response or
# session observation of 20 trials, one JSON line each
AUDIT_CASES = {
    "below_distance_q2": (
        "--attack below_distance --q 2 --n 12 --epsilon 3",
        "30caabd91c6bb4aee1a5e8fb97e19499a2bea614f58e567698f96bbea810f95f",
    ),
    # an exact scan over 8,192 packed candidates, two scan chunks
    "below_distance_q2_two_chunks": (
        "--attack below_distance --q 2 --n 14 --epsilon 1",
        "cba44a1a34541198e4affbd3897bad62bcadcc321dee19c2665e2d3168b0a524",
    ),
    "below_posvalues_q2": (
        "--attack below_posvalues --q 2 --n 12 --epsilon 3",
        "3bd02b937629c7fb17adb379bce01ad26d089096ee3092e6a84447fced8a8245",
    ),
    "minimal": (
        "--attack minimal --q 2 --n 10 --epsilon 2",
        "2c76022878b9249d2200b24b6a38380d84970a6194b2c687012c47ac60c86351",
    ),
    # the greedy-cover accept search, and the exact scan over digit rows
    "minimal_greedy": (
        "--attack minimal --q 2 --n 9 --epsilon 2 --strategy greedy",
        "53c5b1022a6447d4819d1e3b68861b74add55730aa765f74c69f9a464939f10c",
    ),
    "below_distance": (
        "--attack below_distance --q 3 --n 6 --epsilon 2",
        "693bab6a34d09d8ec13441af1716c1d7283193b292ab20e2268943a70e30eb49",
    ),
    # row scans over 6,561 fixing centers in three chunks: exact, and first
    # acceptance followed by the value sweep
    "below_distance_q3_three_chunks": (
        "--attack below_distance --q 3 --n 9 --epsilon 1",
        "30e9bf1d0aa1361259ff675130a295c7e8e86637c5903e7ae20d950da1328132",
    ),
    "below_positions_q3_three_chunks": (
        "--attack below_positions --q 3 --n 9 --epsilon 1",
        "2d6c5f27fb5f6fa85b7d27a534e448ac105ef777ce37ff3dfc1b0a1db7943f94",
    ),
    # the distance climb at q = 2 and q = 4, and the position payloads at
    # q = 16, whose responses carry many flagged coordinates
    "both_distance_q2": (
        "--attack both_distance --q 2 --n 64 --epsilon 4",
        "404d8e557c58b5e5168f7458bdbb22fe63ffa57cf26812f8db3948d6c390b3b3",
    ),
    "both_distance": (
        "--attack both_distance --q 4 --n 12 --epsilon 3",
        "bdd533406a5933760b045f9f4bb557450762b676f46dbfb49a5f9ddf1628ab05",
    ),
    # the climb at perfbench's binary configuration, about 1,024 probes a
    # trial, and at q = 257, where submissions are lists and the secret's
    # row is int64
    "both_distance_q2_n1024": (
        "--attack both_distance --q 2 --n 1024 --epsilon 4",
        "73b7766f6076d00c66630110b54de43cd1ee72c98e0fab92cfe360a0b3e1c9aa",
    ),
    "both_distance_q257": (
        "--attack both_distance --q 257 --n 6 --epsilon 2",
        "b801a0ae87e55bbb182cbee8afc5b87c710572bb46f52b846073e9b8eeb2a235",
    ),
    "both_positions_q16": (
        "--attack both_positions --q 16 --n 64 --epsilon 8",
        "81c0d98e7c622be1d54038a390ae8b68ad6feb665ea9fb09ad85f6b88a26b9dd",
    ),
    "both_posvalues_q16": (
        "--attack both_posvalues --q 16 --n 64 --epsilon 8",
        "39453b72fae83f50f5beaeb3d02468111651dd674a1279ec0e1b68e5e15ac236",
    ),
    # about 240 wrong coordinates per posvalues response
    "both_posvalues_q16_n256": (
        "--attack both_posvalues --q 16 --n 256 --epsilon 8",
        "398a1004b4a5f43ae2054f3c59c6936e2d99ef6c92174013c9b8761920197c8d",
    ),
    # q > 2 posvalues responses at distance at most 2, after a row scan
    "below_posvalues_q5": (
        "--attack below_posvalues --q 5 --n 6 --epsilon 2",
        "23058a33a09f45dd730146b26025d9dbe8946bb1928200deca0524d9909d0db4",
    ),
    # every genuine session's observation, single-error and multi-error,
    # uniform and rare-first
    "accumulation_uniform": (
        "--attack accumulation --q 2 --n 16 --epsilon 3",
        "d5e7e948e0d3d7c3fed43ffb37104d2d716317886bff91f3c0f638246fc6daca",
    ),
    "accumulation_rare": (
        "--attack accumulation --q 2 --n 16 --epsilon 3 --alpha 1.5",
        "a27b43395dfad38b7b7835e2625c7dc6e6a8354f256de97de7b2afa483c414c0",
    ),
    "accumulation_uniform_multi": (
        "--attack accumulation --q 2 --n 16 --epsilon 3 --session-shape multi",
        "5192fbd759113f4f6f9e0bd4f9371db60363d09d7de14364ff6a8db6bf9579c0",
    ),
    "accumulation_rare_multi": (
        "--attack accumulation --q 2 --n 16 --epsilon 3 --alpha 1.5 --session-shape multi",
        "0386667a3585eaa6304716570e74dfc3a8213c18b34f641d2401efbe790d35f8",
    ),
    "fault_control": (
        "--attack fault_control --q 2 --n 11 --epsilon 4",
        "3a1cb8a876bb33e0fce672c0c6bf965a2d19440b21de4a1517db3e3c1e0b97ba",
    ),
}

# (q, n, epsilon) -> digest of the exported greedy cover: every center, in
# the order the greedy picks them
COVER_CASES = {
    (2, 12, 3): "8f5e9dd1912e832a02db4ece8e954fad60271483523a2ac9668296eeb0e5eabc",
    (2, 14, 3): "1a8cdaf9e33ab91be6256cf5f9b4061e8f36c5aba24c5ecd0a3bab551a3756fa",
    (3, 10, 2): "af1aaa51b7ec0bf631f51906f52beac7fe4fd64a5d2c4c6ccba51ef2ce4d7409",
}

# (q, n, epsilon) -> digest of the exported coordinate-fixing cover: packed
# words at q = 2, digit rows above
FIXING_COVER_CASES = {
    (2, 12, 3): "76d0b884ae09372927a7ac5a38106a6d0ba7da4a1f4c9200541651258f1d509b",
    (3, 6, 2): "b69deb67d26b46fad34e985fd4ad151cf0717d89c009228f7313b4f0a24a5054",
}

# (q, n, epsilon, scope, payload) -> digest of the `bounds --out` report.  A
# payload of none leaks only the accept bit, so both scopes give one report
BOUNDS_CASES = {
    (2, 12, 3, "below", "none"): "99e9a77e16ce85a80fc997008e3531e45eca754c0425eecd724ba6e398b5b492",
    (2, 12, 3, "below", "distance"): "ed1be4883ebad6b654695f71a59b7716fad78fd5a2f00482060cc078273edfe6",
    (2, 12, 3, "below", "positions"): "60bd6bba76bbee5a492af40feed112cc3a5402520a7425275ded40d79d924e21",
    (2, 12, 3, "below", "posvalues"): "453f82f3fe5c1fb7079092f7e607ab4d7dd309325c82ccfccfb637372c2ef963",
    (2, 12, 3, "both", "none"): "99e9a77e16ce85a80fc997008e3531e45eca754c0425eecd724ba6e398b5b492",
    (2, 12, 3, "both", "distance"): "b8d0612d6dd9a568dbced748ab928d3f231a4b73ae0775d084fb068efaf8f58d",
    (2, 12, 3, "both", "positions"): "36245262f6bed52c9fcc73314c0f0bdf4f2e794baece7f5b39a619853ad58106",
    (2, 12, 3, "both", "posvalues"): "cd7b13aab1e34ca92779fd465ff6e6d4772900f99b70a3ddeaaab1e54550f4b4",
    (3, 8, 2, "below", "none"): "a8a60a36308f7779ef3cd1666805023dd824b83379ca96b53daba35769771914",
    (3, 8, 2, "below", "distance"): "52816be70d68bb5a4c16fd47b418abf8ccca93e5bc64edfe74736adca06e5db4",
    (3, 8, 2, "below", "positions"): "e7a822adc38eae83e4f93d1ef814fa4b053783fd4bf65d6279c29e076cd3ed32",
    (3, 8, 2, "below", "posvalues"): "119b75fa098f2f0734af84f53f2e3f67717968caf02bdee08e40823c607afac0",
    (3, 8, 2, "both", "none"): "a8a60a36308f7779ef3cd1666805023dd824b83379ca96b53daba35769771914",
    (3, 8, 2, "both", "distance"): "c1915218ed1edb0aeff43d3b6493b27ce28e64630a514c3f025f5dc178a91f6b",
    (3, 8, 2, "both", "positions"): "83755acc68551796905d7d0e2d99e700e815b8fe71158f78609844cbf52d5c86",
    (3, 8, 2, "both", "posvalues"): "b38225402e356fe6a4519ad8531bcece9ad7fc9da091bd3812b19c14d59d337d",
    (2, 60, 1, "below", "none"): "562fbcdfab27b031ed95e91e57604e61c7d6760feb18be5d043c3753f6a4e278",
    (2, 60, 1, "below", "distance"): "d0bce7e16a6c03dcb341146edab36ec136b13148d3f72c10fb5a33ea5e663867",
    (2, 60, 1, "below", "positions"): "440181dafb3db5a35ddd64122ff93203dbe17a7c366cef0b61244c1e62b83b0c",
    (2, 60, 1, "below", "posvalues"): "a69f79f622ed27ed1075485ae5f13c7e67b3eaeee64a5fe6dc8a73718cd89e8b",
    (2, 60, 1, "both", "none"): "562fbcdfab27b031ed95e91e57604e61c7d6760feb18be5d043c3753f6a4e278",
    (2, 60, 1, "both", "distance"): "8cf5e7fa922a075bcf931331c5aa10266b3198d08626bb320e46a0c79f37c9b2",
    (2, 60, 1, "both", "positions"): "1bb672357b788dcfd0595c04ff82b5c7a45f7c0c35e8aad082b582717fe15b78",
    (2, 60, 1, "both", "posvalues"): "a402dfbaa3e3cb9e535a0cac13794e3093f439381d57138e36605793c4630587",
}


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_bench_csv_digest(tmp_path):
    out = tmp_path / "bench.csv"
    assert main(["bench", "--trials", "50", "--seed", "0", "--out", str(out)]) == 0
    assert _sha256(out) == BENCH_DIGEST


@pytest.mark.parametrize("name", sorted(RECORD_CASES))
@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
def test_record_digest(name, fmt, tmp_path):
    flags, csv_digest, jsonl_digest = RECORD_CASES[name]
    out = tmp_path / f"{name}.{fmt}"
    argv = ["attack", *flags.split(), "--trials", "20", "--seed", "3", "--format", fmt, "--out", str(out)]
    assert main(argv) == 0
    assert _sha256(out) == (csv_digest if fmt == "csv" else jsonl_digest)


@pytest.mark.parametrize("name", sorted(AUDIT_CASES))
def test_audit_digest(name, tmp_path):
    flags, digest = AUDIT_CASES[name]
    audit = tmp_path / f"{name}.audit.jsonl"
    argv = ["attack", *flags.split(), "--trials", "20", "--seed", "3", "--audit", str(audit)]
    assert main(argv) == 0
    assert _sha256(audit) == digest


@pytest.mark.parametrize("space", sorted(COVER_CASES), ids="q{0[0]}_n{0[1]}_eps{0[2]}".format)
def test_greedy_cover_digest(space, tmp_path):
    q, n, eps = space
    out = tmp_path / "cover.txt"
    argv = ["cover", "--q", str(q), "--n", str(n), "--epsilon", str(eps), "--out", str(out)]
    assert main(argv) == 0
    assert _sha256(out) == COVER_CASES[space]


@pytest.mark.parametrize("space", sorted(FIXING_COVER_CASES), ids="q{0[0]}_n{0[1]}_eps{0[2]}".format)
def test_fixing_cover_digest(space, tmp_path):
    q, n, eps = space
    out = tmp_path / "cover.txt"
    argv = ["cover", "--method", "fixing", "--q", str(q), "--n", str(n), "--epsilon", str(eps), "--out", str(out)]
    assert main(argv) == 0
    assert _sha256(out) == FIXING_COVER_CASES[space]


@pytest.mark.parametrize("case", sorted(BOUNDS_CASES), ids="q{0[0]}_n{0[1]}_eps{0[2]}_{0[3]}_{0[4]}".format)
def test_bounds_report_digest(case, tmp_path):
    q, n, eps, scope, payload = case
    out = tmp_path / "bounds.json"
    argv = ["bounds", "--q", str(q), "--n", str(n), "--epsilon", str(eps), "--scope", scope, "--payload", payload]
    assert main([*argv, "--out", str(out)]) == 0
    assert _sha256(out) == BOUNDS_CASES[case]
