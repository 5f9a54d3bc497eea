"""Golden CLI output: exit code, stderr and the sha256 of stdout per command line.

The pins cover every output format of ``info``, ``exponents``, ``powersum``,
``heights`` and ``table``, the order of their usage errors, ``powersum`` at
p = 2 and 3, and the report of ``verify`` on a small sweep, on the todd-symm
suite at two seeds, and on the methods (n-max 1 and 40), gamma34 and
t-transform suites.  A change
that moves one byte of output breaks the pin; if the change is meant,
re-record the line and say why.  To record a line, run this file:

    PYTHONPATH=src python tests/test_cli_golden.py 'heights A2 -n 5' ...

It prints one entry per line, in the form GOLDEN uses, from the same
``main(line.split())`` call that the test makes.
"""

import hashlib
import io
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from coxsums.cli import main

EMPTY = hashlib.sha256(b"").hexdigest()

GOLDEN = [
    (
        'info E8 --format pretty', 0, '',
        '55b7738cf5b33567d9ebba4f314f8d827aaaea159db61315218e48b18c9e6949',
    ),
    (
        'exponents I2(7) --format pretty', 0, '',
        '0bd4671c8b85c33399b85024efc139cdd9db37a51ec2ed3f9d981e060a08b13b',
    ),
    (
        'powersum E8 -n 2 --format pretty', 0, '',
        'c5b157d80ea6d6d1b01322182f9cf49a1bab13da47463dc6e907ba18f9c194d6',
    ),
    (
        'heights H3 -n 1 --format pretty', 0, '',
        'ece1f4a75dd9fae77f60f3045f1ac6dbaaf64a2e985f97ae2b5432440785e3dc',
    ),
    (
        'table --types E6,E7,E8 --format pretty', 0, '',
        '14dade2300604ec721a088303aea6e44fc78343dcd39e0443b235c47f40c5ab9',
    ),
    (
        'info E8 --format json', 0, '',
        'ddb53cba0c711d12377e2da2bb8e25ba779bc96f81e51ef9aad23a5096d77a2a',
    ),
    (
        'exponents I2(7) --format json', 0, '',
        '6a0319dd9fed3168837ca382f645a4c842e37c1fba3feb6fb6643a429dcbf8b4',
    ),
    (
        'powersum E8 -n 2 --format json', 0, '',
        'fbbda53a5f2edc26495379a4044f0fe6631748fefd2814ff6c4c4cbc50bf9a09',
    ),
    (
        'heights H3 -n 1 --format json', 0, '',
        '660f4d00405c3e6cf5f0b2bf4c80a79e5f3caaf7de2f5c94079f8a307f3199e8',
    ),
    (
        'table --types E6,E7,E8 --format json', 0, '',
        '1b9af7362830967c09e0ae71a35b63724b5c96347c62b4d49ea9498e39ebca62',
    ),
    (
        'info E8 --format csv', 0, '',
        'bb372158b0b9297b44c9971549118a5aafa58abef00d6dda942b771577ab1829',
    ),
    (
        'exponents I2(7) --format csv', 0, '',
        'f92427d78c149e9c7e666493f40d3475b0e5a99116b32575da7f0d8981383c40',
    ),
    (
        'powersum E8 -n 2 --format csv', 0, '',
        '9023d924f862d235c38ee4be7d7406ac4b31a9c332b171ab0e768e331a74bb7e',
    ),
    (
        'heights H3 -n 1 --format csv', 0, '',
        'cca40956826045aadb6075f620f51fe6b23eed83ceb93251be47fc3454ea078d',
    ),
    (
        'table --types E6,E7,E8 --format csv', 0, '',
        'fc7a8684fdcdcbd56065566d26eb9248973199202a79414f014e09949c27fc54',
    ),
    (
        'info E8 --format latex', 0, '',
        'b132a9a99533b61e6fb758cbe3e3ddb19f3d66028db6931ba45cd9b068e87910',
    ),
    (
        'exponents I2(7) --format latex', 0, '',
        'e6bce06df972313c7f5d6cd449521479c89cbc1b484aac26e9acd67d07c2e8ab',
    ),
    (
        'powersum E8 -n 2 --format latex', 0, '',
        '613a2484603a93737f6395dbf71926bba5a519069b7260f92b883a35d814a155',
    ),
    (
        'heights H3 -n 1 --format latex', 0, '',
        '2b8e0e3bcca29ff274ce4735a963a81b14e47791cbecf7eadb46a9c4d4d96502',
    ),
    (
        'table --types E6,E7,E8 --format latex', 0, '',
        '4238a6578c90a74cd453cf4a1c88c32b6fa318ebcea082084f4dfec7c9b3bd47',
    ),
    (
        'info I2(9) --profile redefined', 0, '',
        '19c387cb0791d8b3d461d60076c9baae0ac86e4b1926eed0f5384129fddec79e',
    ),
    (
        'info A2 --beta 7/2 --format latex', 0, '',
        'e197b33438025e0eb6c32a5accc5e903f26e1f103e8c9c83d7b70906a9b4bddb',
    ),
    ('info E8 --beta 11', 2, 'error: beta is determined for type E8\n', EMPTY),
    ('powersum A2 -n 7', 0, '', '6c7071c58feceaae881560224bb5554799a9d70c9e56ba9163e11f0e24d82a03'),
    (
        'powersum B3 -n 3 --method todd --p 2 --format csv', 0, '',
        '28fae2090bb8262bf1a307dddb4661944c93151b1b688ac7e7aaa67fb16f56b0',
    ),
    (
        'powersum I2(9) -n 5 --profile redefined --beta 5/2', 0, '',
        '292d55075416c230161e0bf2d8abd723edfc6e91cd7987d5f2d17a57bb46b466',
    ),
    ('heights A2 -n 5', 0, '', '889d1dafbd5bdfb9273c3b76d52d773e6740fc972a245a207c982674930da119'),
    (
        'heights F4 -n 4 --method closed --format json', 0, '',
        '6138f2cfba59e03f67021f14e2e711eaffa10cf8c7cf9088eb0ef273b5d57fb5',
    ),
    (
        'table --all --max-rank 3 --max-m 6 --n-max 2 --format csv', 0, '',
        'f3427e13fe809f23561a537aa0073ec60945a45cec744f959f5ce4095fdd6792',
    ),
    ('powersum A2 -n -1', 2, 'error: n must be >= 0\n', EMPTY),
    ('heights A2 -n -1', 2, 'error: n must be >= 0\n', EMPTY),
    ('powersum A2 -n 2 --p 0', 2, 'error: p must be >= 1\n', EMPTY),
    (
        'powersum A2 -n 6 --method closed', 0, '',
        '3ed76dc628c6ae45d015426eddb337264c29dec67100edaa7141d8e35f4158a2',
    ),
    (
        'heights A2 -n 5 --method closed', 0, '',
        'b06ae53e2f80549ece19b043f097c260b366ab9e208abe6ed324cd3786d4e7c8',
    ),
    ('powersum E8 -n 1001 --method todd', 2, 'error: the todd method needs n <= 1000\n', EMPTY),
    (
        'powersum E8 -n 5000', 2,
        'error: the todd method needs n <= 1000 (use --method direct for larger n)\n',
        EMPTY,
    ),
    ('table', 2, 'error: need --types or --all\n', EMPTY),
    ('table --types A1 --n-max -1', 2, 'error: n-max must be >= 0\n', EMPTY),
    ('powersum E9 -n -1', 2, 'error: E9 is outside the classification\n', EMPTY),
    ('powersum A2 -n 6 --method closed --p 0', 2, 'error: p must be >= 1\n', EMPTY),
    ('heights E9 -n 9 --method closed', 2, 'error: E9 is outside the classification\n', EMPTY),
    (
        'powersum A1 -n 9 --method closed --beta x', 2,
        "error: bad rational 'x': Invalid literal for Fraction: 'x'\n", EMPTY,
    ),
    (
        'heights I2(600) -n 4 --method direct', 0, '',
        'ef7900d8574dbf8ed02ce8f6021e01e445e5d17d2b36d61b621f8a616bbd03e7',
    ),
    (
        'heights A120 -n 3 --format csv', 0, '',
        '4a22cb3c7a0c4bec2f22974a5c0f4014129389562d5d6f3893ed939cc3e816c9',
    ),
    (
        'heights D4 -n 12 --method direct --format json', 0, '',
        '7dc82f7a1ed785159b474a201dbd6bf5054b263a1463d07ecb7f0bc5a6aa4ae5',
    ),
    (
        'heights H4 -n 7 --format latex', 0, '',
        'd13105d555fb83e563178e590e9ba6cc9477973c8634aa8d73bf98c43c2ff536',
    ),
    (
        'verify --suite todd-symm --seed 5', 0, '',
        '71a3e95d13362f2daa43c9cad21fc9442125ae3b5382541e00992f6db8011948',
    ),
    (
        'verify --suite todd-symm --seed 0', 0, '',
        '8470abdd26730329a678566b46d456c0341b68bdc46dce9d5bbf7615585577c3',
    ),
    (
        'verify --seed 7 --max-rank 4 --max-m 6', 0, '',
        '90c3192d28fbf73456d91ee2cc94b6e1ff0076ad2872a1844ea4f47a5c2afa05',
    ),
    (
        'table --all --max-rank 8 --max-m 6 --format pretty', 0, '',
        'ba5fc5bb5f4c15d4a3eedfaecaf15b55ba69a9699a02b88f0d8eface1667a001',
    ),
    (
        'table --all --max-rank 8 --max-m 6 --format json', 0, '',
        '22081de374364669366283b884051a8255dae557ca9f12ced0414742ba8e5ca2',
    ),
    (
        'table --all --max-rank 8 --max-m 6 --format csv', 0, '',
        '0021ac21cef4c339f9307e0b263e9b9dbdfbe28f5c69a23cc2bb012fc98094d8',
    ),
    (
        'table --all --max-rank 8 --max-m 6 --format latex', 0, '',
        '089b567c2aeedcca1f60cf664f19e8d4b34e8c134d4c3f1369bb96b4333f5153',
    ),
    (
        'info E6 --format json', 0, '',
        '53388a954b258469399c4219192dd4f1cc3b0d24e38c7e1464e831d4d30cc3cf',
    ),
    (
        'info E7 --format json', 0, '',
        '10d8750ec203da5402fdebf6587fd7619b80e3254396738585ee60b3bc31c8ff',
    ),
    (
        'info F4 --format json', 0, '',
        '39569c1c1ae208003c8a2b26fa117f5b3b41fbe6097730b13fcc0d31a1643ec8',
    ),
    (
        'info G2 --format json', 0, '',
        '0af30c637cc41fbb2d26c1d29c6b9a5bc23dfffb101a92ef3fa020fe2f904c50',
    ),
    (
        'info H3 --format json', 0, '',
        '67abbf58440acc66194fdb5b810fee8c85b320a39cb9b0cfc274a4e29c96b6a3',
    ),
    (
        'info H4 --format json', 0, '',
        '454233aec91c3cdef23a8189b609627808493091f91f2a03f8af93d8da8f6481',
    ),
    (
        'info I2(5) --profile standard', 0, '',
        '8125f36b32d8057403b34e3749780f8dcded7063325700a9cf7c52bb95ccbeee',
    ),
    (
        'info I2(5) --profile redefined', 0, '',
        '98bf93f003a80495e62b63c3d05b600f13eeaf7c781e5dae11d9357f2f238be1',
    ),
    (
        'info I2(5) --profile h2-original', 0, '',
        '762b57813af6ba023a8fbaaa97375424ea7a22a8d34a9ec37016d5d15a5c5e98',
    ),
    (
        'info G2 --beta 7/2', 0, '',
        '480b6f20bb8316be0f494f0a4a902b86b37e95ca26085008366bd7737a8dccb2',
    ),
    (
        'info E8 --beta 2', 2, 'error: beta is determined for type E8\n',
        EMPTY,
    ),
    (
        'info E9', 2, 'error: E9 is outside the classification\n',
        EMPTY,
    ),
    (
        'info F5', 2, 'error: F5 is outside the classification\n',
        EMPTY,
    ),
    (
        'info G3', 2, 'error: G3 is outside the classification\n',
        EMPTY,
    ),
    (
        'info H5', 2, 'error: H5 is outside the classification\n',
        EMPTY,
    ),
    (
        'info B3 --format json', 0, '',
        'c0c5cb2d4a7e8a7e923964db60862d2a5051df754013a063e069fefa67b9d0fe',
    ),
    (
        'info B3/C3', 0, '',
        '51620693aa7045da7c3f211f957669ca5c2825390a2d45c84ead9eb8b325ab44',
    ),
    (
        'exponents I2(3)', 0, '',
        'd5d4621cfcad0ae13f959c60e32a3e675da887a68b14b6776101d896767bd261',
    ),
    (
        'info I2(4) --profile redefined', 0, '',
        'bbdf34adf001b8a5a9f529c52d9e79c2c8a8ed61bbeb5bdc98ae42ec265a477b',
    ),
    (
        'powersum I2(5) -n 4 --method all', 0, '',
        'c5f7471c27cc38e47717e85ce9f585f3866f6ed3419aa37de852e519308029ed',
    ),
    (
        'heights I2(6) -n 3 --format csv', 0, '',
        '7eefbffdf39ae0b1016407605af3fa5d5625c84af2a2e6bbf47fcc836b41f437',
    ),
    (
        'table --types B3,I2(3),I2(4),I2(5),I2(6) --format latex', 0, '',
        '3b4d2b2fd1c777a591f1fbf115e4e9ba8708fe1cd8fa614b3fc9e833edd58f52',
    ),
    (
        'info B1', 2, 'error: B1 is outside the classification\n',
        EMPTY,
    ),
    (
        'info I2(2)', 2, 'error: I2(2) is outside the classification\n',
        EMPTY,
    ),
    (
        'info B3/D3', 2, 'error: D3 is outside the classification\n',
        EMPTY,
    ),
    (
        'verify --suite methods --n-max 40', 0, '',
        'b7aa62d37ff2545fabcf7f38acde16009180759d077a51add29ff26aeb0d980d',
    ),
    (
        'verify --suite methods --n-max 1', 0, '',
        'ffe62f05b06a3212afb5e201a997765d046c327731feda9c2890ae85dbb1c70f',
    ),
    (
        'verify --suite gamma34 --max-rank 6 --max-m 10', 0, '',
        '8e50de5f720641d56c11338c345065ab2a12410c78d4c2ab4fae4c05bd2040ed',
    ),
    (
        'verify --suite t-transform', 0, '',
        '8e01c7241ee8e629fc333c2de3bd399193e7c6a396728370bf0c56720cd5d5a4',
    ),
    (
        'powersum E8 -n 30 --p 3 --method todd', 0, '',
        '1f3a9f11c97afc59f6de397860fc0adf9bb693e6abcc9b2d96c20894ca72ae4d',
    ),
    (
        'powersum H4 -n 30 --p 2 --format json', 0, '',
        '7b5bbb794980b830e84769d8608596b14a4e5495368245ab0d7bd5b0f9de00ee',
    ),
]


@pytest.mark.parametrize("line, code, err, digest", GOLDEN, ids=[g[0] for g in GOLDEN])
def test_golden(capsys, line, code, err, digest):
    assert main(line.split()) == code
    captured = capsys.readouterr()
    assert captured.err == err
    assert hashlib.sha256(captured.out.encode()).hexdigest() == digest


def test_recorder_prints_entries_back():
    """Run as a script, this file prints GOLDEN entries in their own form."""
    entries = [GOLDEN[0], next(entry for entry in GOLDEN if entry[3] == EMPTY)]
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}
    done = subprocess.run(
        [sys.executable, __file__, *(entry[0] for entry in entries)],
        capture_output=True, text=True, env=env, check=True,
    )
    assert eval(f"[{done.stdout}]", {"EMPTY": EMPTY}) == entries
    assert done.stdout == "".join(entry_text(entry) + "\n" for entry in entries)


def record(line):
    """(line, code, err, digest) for one command line, as test_golden reads it."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(line.split())
    return line, code, err.getvalue(), hashlib.sha256(out.getvalue().encode()).hexdigest()


def entry_text(entry):
    """One GOLDEN entry as source text, the empty digest written EMPTY."""
    line, code, err, digest = entry
    digest_text = "EMPTY" if digest == EMPTY else repr(digest)
    return f"    (\n        {line!r}, {code}, {err!r},\n        {digest_text},\n    ),"


if __name__ == "__main__":
    for line in sys.argv[1:]:
        print(entry_text(record(line)))
