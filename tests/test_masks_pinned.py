"""`relctl masks` outputs pinned byte for byte.

Each digest is the sha256 over the files that `relctl masks` writes for one
layout, taken in the order of ``FILES`` as ``name NUL bytes``; a file that
is not written (the MCAM files of a layout without text) is skipped.  Any
change to the cover, the levels, the positions or an exporter's format shows
here; a deliberate format change re-pins the digests.
"""

import hashlib

import pytest

from relattn.cli import main
from relattn.corpus import bench_layout, builtin_corpus
from relattn.layout import to_json

FILES = ("csam.csv", "csam.pgm", "mcam.csv", "mcam.pgm", "positions.csv", "blocks.csv")

DIGESTS = {
    "t2v-min": "065aff5036db38cc217b0111f6a32adcb1f0de7f511ad98644a8d3f9727b1c8c",
    "t2v-deep": "24c06a3370a0fb592be4031475ba68e2d1b42df74b73e36da5bebeae9abd0a73",
    "bg-only": "e945090ebd7e6bbea0ebf9973701b6569bb99e122a5a8d67edb6410bdd9a65ed",
    "obj-only": "241bdd88afbdd4d6718ec208f39aea807c72a9ea9d735771886cba6382591cf7",
    "obj-trio": "815384ef5c57d1becc15a6cb36ef51c0a14c784a7ac68268c9d2534626a1f79e",
    "bg-objs": "ce28a226d7975a3611686d8d05fa514e7a52ea1b99571a01446cdfdfa254504c",
    "face-solo": "b8e791bab41c29f05acd0c680c7255f401ebcffc8e2f6c137e48c260cb295e05",
    "face-attr": "9f437d3a17041c0bcdfdbf539214f12a47913fc906eee19036dadf60337e7512",
    "attrs-max": "42f63ef03e4c6d3413a2b7e00b355cf28f75268c6b78f81fcf18cc5752380dd3",
    "duo-groups": "971f6c4b7ccd723fd6160504f715ff7ae2c8fdbbf8b058325f9cc579ed245413",
    "showcase": "a4ec31c19942283a5653cbb77df8c6b0fd4fc2a4536693f6c7435a338ecb5339",
    "trio-groups": "93a3f12f79b06f3fdc8284c505d9eb5cef9c8feb6a90961baa7236a44b64728c",
    "quad-groups": "83ea1ba5582e7b7291dd2648b8de17aceea6606e6884b37033808b04a6af2fd2",
    "quad-faces-bg": "c4edfb6e84efdb1d124e523d089bf11c0003608d275a67a8c923a7eb1d586cc0",
    "ragged": "d366c3a9d6bba049b952855ea57a6939b037f2eb0364e61cfcd7b1dba0a614cd",
    "strip": "b4fee2c9e484b7d2f566dba4b4ebbb17d483bec9d7771169a298654ca13f9f40",
    "no-text": "a913c082bb1680eb1eadab3710a34bf389accfef1552fc1996e1ff5afd5b7773",
    "spanless": "10789530895da3a9a49b413f2032168226871a4296a06b2fbf3a427760493c04",
    "big-sparse": "bb79430553fb6ca913ea88f55ea1b5e03c17adc1e0ab4f1463fd3eb6af2162ea",
    "deep-duo": "ae17cc96e7d6b08b3b58af1411667758d525476471294e318baa1d4d0fc27c1b",
    "mixed": "925590244ce13614537d0e0cf65d4c1a18a454610030112e512d23964d36e085",
    "wide": "66afdafae63dda6b86ddc32f2ec41814fea8188fc0ccdb2132e49ef7b1134713",
    "attrs-duo-max": "367fcce305eaa3e2a94c9aeb555ff1653a8a3f37763479c648a170fe16fbf5a4",
    "tall": "257af8d3c28e105fefb5fa708af2241ccfbc4c251dd4626c31eb6b3e6f36b653",
    "grande": "d699b26b21f9ff16158a53f25dbef84eee5880ed13fa6cbb5bd04c0c19bcf8ef",
    "bench": "65b67c9793e867df8c7f7c8b7a899e563f1382e36d0c1a79b0222b2bc8379e89",
}

LAYOUTS = dict(builtin_corpus() + [("bench", bench_layout())])


def test_every_layout_is_pinned():
    assert set(DIGESTS) == set(LAYOUTS)


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_masks_outputs_match_pinned_digest(name, tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(to_json(LAYOUTS[name]))
    out = tmp_path / "out"
    assert main(["masks", str(spec_path), "-o", str(out)]) == 0
    capsys.readouterr()
    digest = hashlib.sha256()
    for file_name in FILES:
        path = out / file_name
        if path.exists():
            digest.update(file_name.encode() + b"\0" + path.read_bytes())
    assert digest.hexdigest() == DIGESTS[name]
