"""Block forward outputs pinned byte for byte.

The float32 arithmetic of the forward is frozen: a speed-up must keep every
element's operation order, so its outputs stay identical to the last bit.
This pins the `relctl forward` loss lines of the README showcase and of
``bench_layout()``, and the sha256 of the raw float32 ``block_forward``
output on every corpus layout at three (r, d) settings.
"""

import hashlib

import numpy as np
import pytest

from relattn.attention import AttnConfig
from relattn.block import block_forward, init_weights
from relattn.cli import main
from relattn.corpus import bench_layout, builtin_corpus, corpus_layout
from relattn.layout import to_json

# the `relctl forward` model shape
CHANNELS, TEXT_CHANNELS, HEADS, HEAD_DIM, HIDDEN = 16, 12, 2, 8, 32

SETTINGS = ((0.5, 8), (0.0, 8), (0.5, 1))

DIGESTS = {
    "attrs-duo-max": (
        "811ae83590ace326e83705e6321d363532600ccb982745fb5afd8f50407bfb20",
        "28a329b39cca6b0b80214600bed1ef40b5101ef5a106a1094288e504a42805f5",
        "8c811037b8f32a98012868de1a1c01cc329d9132a6f689dcddc66dcce44b9d42",
    ),
    "attrs-max": (
        "df02ebfdabce425fa617d7eb942cdce43975d46cdb4f7fc0ee4265c2ec4a1743",
        "26d940a2c977d24c3c3558d4ccbefd8f8e41953012cc38dd3ca8c4ca51155f4b",
        "21f89dfd983d18c012e2e11bea25669f11ee45b56dae4ea676851199588f0ad0",
    ),
    "bg-objs": (
        "1733b1f45395464f6bca87835869885bfcc1847795daf8e1dab0601e17cf18e6",
        "72eb36966920fbb6a85eee6b0e8961ab412b8ed8c980eda542cfd40c7fa7bd32",
        "f1ea27b626750560aa36cd9b6971f46621700a414f245d57c4a8c7403744e33f",
    ),
    "bg-only": (
        "6602721b9bcc6e0570f933e314f57ff29369314b9f7f86dab2dcebdc927c17da",
        "13dc48915409a8611eb76942fdb82b61c950a4a22bad75d09a4be35b014b5e30",
        "f9e375d7be8014e4878bc83af495969931cd4fbdf3aff6158820ed27c729e34f",
    ),
    "big-sparse": (
        "934723eb9bfc6f3f014288770300795adaaa3c345053eba35513ac3c8efc812e",
        "a7baeec781fde8bc68b0dc17294d43882fc7b72ba644034509d30992fe415d86",
        "3ca5850510a5dd978f0b308bda9c945411798e197432f36ac1314763e6283b79",
    ),
    "deep-duo": (
        "b2ecec092e962cd275ea9b5ae182b5229a0c822f59ee2983df75da30213a04e6",
        "9dc82839b4222a74d53be3d31fe438f8b0420bf7039f0143e9c110041141f811",
        "5a0e68b92178dfa36ad9b9937f87598c703b1c14f93ca86856234ed6d7bed9db",
    ),
    "duo-groups": (
        "d285f5fd6e42e7f5229007c8cb1abce50e04e0780f06d417d0ec1501eeaf2d6c",
        "03b7870eab2eb1850fc3008561f8c66acd1f2dfcfeabda3871d3941bd04fda82",
        "fe871082e47e2e2ebdaa92020c5fd3939bebf1a172c88dbf8b7e8c7d0cdb508d",
    ),
    "face-attr": (
        "e0968a670a52377388d18d05d1294ba0ed6b8b52bd21c54636aa1f80b738a86a",
        "9bf523333103376db64a20f3d5d68d00c18f89db731a7c2de7e6dfaf6074e027",
        "5fde90c8a5496d7eac6aecb56044a77f605337765fdf07a3123aac57b96b71b8",
    ),
    "face-solo": (
        "0a63714f041223cc132bccadc936f75250043b1a6541ae907292e52d19772d8c",
        "610478c50cbc7dc1beacd006edab88b3a142b243ac195cb374cf607f843f3eeb",
        "a13afcdb4fb66c890e19fb4a06f93694f85f074d3deda6c116a6c3c6f9d78439",
    ),
    "grande": (
        "db0b9b33538ea4aae2369255f3154f4cfa958b62f3965a4e6d21a290c2f7ebbb",
        "31cb413180e376deb1c268c670c5e793d63e874ac501ddd092892d72b0658605",
        "3546e8453deae91d3ef2d551f8e61d3639433c62374f3dab710420af99b9c571",
    ),
    "mixed": (
        "1d3d5e61c8e8e9dfd42684bdc853d751fff48c893bfb6ed2ebd3ebed2c6320e0",
        "2bfbce787e75a58a11f61473b58102f97a662b864982260b26487fa8197b5a06",
        "a4adab93918a76f760a2d244452aeb24ab6a161ba227d6e0addcc91861edcc70",
    ),
    "no-text": (
        "ca583c5cf6a77fc33cec004fb00ac6fd22b27bff4df18318b3a80fa858289f38",
        "ca583c5cf6a77fc33cec004fb00ac6fd22b27bff4df18318b3a80fa858289f38",
        "ca583c5cf6a77fc33cec004fb00ac6fd22b27bff4df18318b3a80fa858289f38",
    ),
    "obj-only": (
        "ffba9db987f21dc2aa38f6c00d82b43aca478bee74a0941a188b625841a10142",
        "20f1a4349d9bb658492f3128d7769237b6d984a0f227e5d6659d80bc2b2ecd98",
        "7d2743f0b33eb143e98eec499990ae9791dcf979c69c7c403fad3a3c55701d4d",
    ),
    "obj-trio": (
        "fe0435236b25cade2fde737b711013e6f054569b1f16c9434341b3b681525d84",
        "9329a88bb8c706c99036636cc8c6a6feba5365bf5972df0c0275064b1f084efc",
        "4f026f22762b08b13d49d369700da7c4b392c891da49c7016e1f47b3ec1b4dd1",
    ),
    "quad-faces-bg": (
        "589fad0fef3ddbbd86b4836976c38c84dc3dee9d32c2065775ab825989a5e178",
        "efd860c740ded769bd76aec074558cb67a1d9a2b36ac8e762b2eb34fa8b42e78",
        "f2486cd0fbe434761966e70a389b0ce320506d314ae071beaf25c9240cddf940",
    ),
    "quad-groups": (
        "9651ab20578c6c50dd515a1008558129c43e0be2cb380f0be945fe9ecef5073f",
        "de5221d657d0ce411009059b244f742d5832dcd1f6c1e605dc6fdafe805226d9",
        "71534256608a32f5de6dec7f54812ff44f22fcdb333eaec2c13b683cd75074f8",
    ),
    "ragged": (
        "fb8ed2f6eb3c176c439a2cd5354ea8f3a21f8010e849e273351704e139529d47",
        "5a90e1c9047baf84faa4f69dd57f9b75a4a6f14955f44c24952caeef19aaae23",
        "a0ea0d3eddacf1a4c7b35601bcb10f6f87b8fe7eb7207b269178624f77042eef",
    ),
    "showcase": (
        "04db72f53651f9dcaf927f3f62e618ee8836521dc26aa16fad9a460443e6a620",
        "9289168e987812ba16697b9f5cf6aaeb39ab34999bf36f0305916d9f2435a68d",
        "623ecc76c8b5885b4c2dfd6769c4f01b3306fee880da0241b066f16a207603cd",
    ),
    "spanless": (
        "9ba9749082ff8195d8dbd6b1b6a201624ffb4f8d46f9f35273e9746f50b48b01",
        "9ba9749082ff8195d8dbd6b1b6a201624ffb4f8d46f9f35273e9746f50b48b01",
        "9ba9749082ff8195d8dbd6b1b6a201624ffb4f8d46f9f35273e9746f50b48b01",
    ),
    "strip": (
        "f78915f183727776e833e9aca1923e5d583c829d333d5341e426c6002d8ac8c2",
        "30a322b8406f5b6ca5729c03540f6ba7ac32f821e2d7bb8717718ffa1f24e8a4",
        "2b4a7d2b6166951a918669e89caf0049ef487d624d1a221d5968c87b202cebfe",
    ),
    "t2v-deep": (
        "8a976ef910872c14e45b09e52abde8aa6e3bf0a7ef90b9325ceadffc58fcaff6",
        "8a976ef910872c14e45b09e52abde8aa6e3bf0a7ef90b9325ceadffc58fcaff6",
        "8a976ef910872c14e45b09e52abde8aa6e3bf0a7ef90b9325ceadffc58fcaff6",
    ),
    "t2v-min": (
        "5064797c3e92a7ba202da3947af0246f9e0cd14702b35c4ad30cba216a939870",
        "5064797c3e92a7ba202da3947af0246f9e0cd14702b35c4ad30cba216a939870",
        "5064797c3e92a7ba202da3947af0246f9e0cd14702b35c4ad30cba216a939870",
    ),
    "tall": (
        "971c3cc9b28e509d035006da7896a08915e2d05502c72c0378ea8a12c838f38f",
        "f237839af75026503c77e36a56455bb6276b678dd57d72da418123a786f4db57",
        "cdf79cb3115c69e5ac624e5a6685a3ae8837e7c96246f3b72bebf610a5fdf4d0",
    ),
    "trio-groups": (
        "66b208b96ea6bdbb5a2eca154e2c2b2bf25987dd5668cf9f6f90a9e63536ad49",
        "de9866a66432690aa20ac5b78da78f9d87e7483d720191fdbb954025a5d601c2",
        "caf25220099871d05e5d77361d8d5a3ac65d5b5cfd9737304625efcf177fb825",
    ),
    "wide": (
        "0b3e0d2bc8bdd0ea986f912270e405516e69f868ac1cd1755af597fa1efab067",
        "a89ee7556277e9b4ead60cbc24438d93117387a1498f4a13b8942801e5d0bac3",
        "8bb37a2c25e58a95bfe5533a54bd3409cdcdfe64d3176ac8d4071177b4f5e229",
    ),
}

LAYOUTS = dict(builtin_corpus())


def _forward_digest(name: str, r: float, d: int) -> str:
    spec = LAYOUTS[name]
    rng = np.random.default_rng(sorted(LAYOUTS).index(name))
    weights = init_weights(rng, CHANNELS, TEXT_CHANNELS, HEADS, HEAD_DIM, HIDDEN)
    x = rng.standard_normal((spec.n_tokens, CHANNELS)).astype(np.float32)
    text = rng.standard_normal((spec.text_len, TEXT_CHANNELS)).astype(np.float32)
    y = block_forward(weights, x, text, spec, AttnConfig(r=r, d=d))
    assert y.dtype == np.float32
    return hashlib.sha256(np.ascontiguousarray(y).tobytes()).hexdigest()


def test_every_corpus_layout_is_pinned():
    assert set(DIGESTS) == set(LAYOUTS)


@pytest.mark.parametrize("name", sorted(LAYOUTS))
def test_block_forward_output_matches_pinned_digest(name):
    got = tuple(_forward_digest(name, r, d) for r, d in SETTINGS)
    assert got == DIGESTS[name]


@pytest.mark.parametrize(
    "spec, seed, line",
    [
        (corpus_layout("showcase"), 7, "loss=2.8825109005e+00"),
        (bench_layout(), 3, "loss=2.5085811615e+00"),
    ],
    ids=["readme-showcase", "bench-layout"],
)
def test_relctl_forward_loss_line(spec, seed, line, tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_text(to_json(spec))
    assert main(["forward", str(path), "--seed", str(seed)]) == 0
    assert line in capsys.readouterr().out.splitlines()
