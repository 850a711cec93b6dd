"""Byte-exact snapshot of the CLI.

Every subcommand runs on inputs built here (`sampling` with fixed seeds and
hand-written JSON), written under a temporary directory that is also the
working directory, so that messages carry only relative paths.  Each row
pins the exit code and the sha256 of stdout and of stderr; together the rows
give every exit code 0, 1 or 2 that each command can return.  A refactor of
the front end must leave every row as it is; a deliberate change to the
output updates the affected digests and says so.
"""

import hashlib
import json
import random

import pytest

from builders import random_split_bundle
from toricfilt.bundles import CocharBundleData, GroupSpec
from toricfilt.cli import main
from toricfilt.linalg import QMatrix
from toricfilt.sampling import p1_fan, p2_fan, random_filtration_data
from toricfilt.serialize import bundle_to_obj, fan_to_obj, filtration_to_obj

P2 = fan_to_obj(p2_fan())
SQUARE = {"rank": 3, "rays": [[0, 0, 1], [1, 0, 1], [1, 1, 1], [0, 1, 1]],
          "maximal_cones": [[0, 1, 2, 3]]}


def _line_data(fan, jumps):
    return {"fan": fan, "dim": 1,
            "filtrations": {str(k): [] if j is None else [{"i": j, "basis": [["1"]]}]
                            for k, j in enumerate(jumps)}}


def _lines_data(fan, lines):
    """Dimension 2: the full space through index 0 and one line at 1 per ray."""
    return {"fan": fan, "dim": 2, "filtrations": {
        str(k): [{"i": 0, "basis": [["1", "0"], ["0", "1"]]},
                 {"i": 1, "basis": [[str(x) for x in line]]}]
        for k, line in enumerate(lines)}}


def _gl_bundle(fan, frames, chars):
    return {"group": {"kind": "GL", "n": len(frames[0])}, "fan": fan,
            "cones": [{"cone": k, "frame": [[str(x) for x in row] for row in frame],
                       "chars": char}
                      for k, (frame, char) in enumerate(zip(frames, chars))]}


def _inputs():
    identity = [[1, 0], [0, 1]]
    split = random_split_bundle(random.Random(3), p2_fan(), 2)
    singular = json.loads(json.dumps(bundle_to_obj(split)))
    singular["cones"][1]["frame"] = [["1", "2"], ["2", "4"]]
    tangent = CocharBundleData.make(
        GroupSpec("GL", 2), p2_fan(),
        [QMatrix.from_rows(identity), QMatrix.from_rows([[0, -1], [1, -1]]),
         QMatrix.from_rows([[1, -1], [0, -1]])],
        [[(1, 0), (0, 1)], [(-1, 1), (-1, 0)], [(1, -1), (0, -1)]])
    p1 = {"rank": 1, "rays": [[1], [-1]], "maximal_cones": [[0], [1]]}
    return {
        "fan.json": P2,
        "bad_fan.json": {"rank": 2, "rays": [[2, 0], [0, 1]], "maximal_cones": [[0, 1]]},
        "not_top.json": {"rank": 2, "rays": [[1, 0], [0, 1]], "maximal_cones": [[0], [1]]},
        "filt.json": filtration_to_obj(random_filtration_data(random.Random(0), p2_fan(), 2)),
        "filt_b.json": filtration_to_obj(random_filtration_data(random.Random(1), p2_fan(), 2)),
        "filt_p1.json": filtration_to_obj(random_filtration_data(random.Random(2), p1_fan(), 2)),
        "not_full.json": _line_data("fan.json", [0, None, 1]),
        "float.json": json.dumps(_line_data("fan.json", [0, 0, 0])).replace('["1"]', "[0.5]"),
        "four_lines.json": _lines_data(SQUARE, [[1, 0], [0, 1], [1, 1], [1, 2]]),
        "not_nested.json": {"fan": "fan.json", "dim": 2, "filtrations": {
            "0": [{"i": 0, "basis": [["1", "0"], ["0", "1"]]}],
            "1": [{"i": 0, "basis": [["1", "0"], ["0", "1"]]}, {"i": 1, "basis": [["1", "0"]]},
                  {"i": 2, "basis": [["0", "1"]]}],
            "2": [{"i": 0, "basis": [["1", "0"], ["0", "1"]]}]}},
        "line_high.json": _line_data("fan.json", [1, 1, 1]),
        "line_low.json": _line_data("fan.json", [0, 0, 0]),
        "one.json": [["1"]],
        "bundle.json": bundle_to_obj(split),
        "singular.json": singular,
        "broken.json": _gl_bundle("fan.json", [[[1]]] * 3, [[[0, 1]], [[0, 0]], [[0, 0]]]),
        # the P^2 fan with the ray (1, 1) listed by no maximal cone
        "unused_ray_fan.json": {"rank": 2, "rays": [[1, 0], [0, 1], [-1, -1], [1, 1]],
                                "maximal_cones": [[0, 1], [1, 2], [0, 2]]},
        "unused_ray_broken.json": _gl_bundle("unused_ray_fan.json", [[[1]]] * 3,
                                             [[[0, 1]], [[0, 0]], [[0, 0]]]),
        "tangent.json": bundle_to_obj(tangent),
        "sl_ok.json": _gl_bundle(p1, [[[2, 1], [1, 1]], identity], [[[1], [-1]], [[2], [-2]]]),
        "sl_bad.json": _gl_bundle(p1, [identity, identity], [[[1], [0]], [[0], [0]]]),
    }


# label: (argv, exit code, sha256 of stdout, sha256 of stderr)
SNAPSHOT = {
    'validate-fan/ok': (['validate-fan', 'fan.json'], 0,
        '9bf4c568fe95284c628e5cbb234dde30521194133b6a074976f534efe676a904',
        '4bf5ce58b484d2cde118e4885d9c2ab32f76c058ed80cc52dcf2a2eda3727bc3'),
    'validate-fan/not-top-dimensional': (['validate-fan', 'not_top.json'], 0,
        'b07fee0926b87aa3a97107a7da0dd50fd938f6f5150827f748ac512733c5a008',
        '16172b0ea7520e6245f821076649327a18ec5ede92c4c7460467961d727cc88a'),
    'validate-fan/invalid': (['validate-fan', 'bad_fan.json'], 1,
        '843eae38812f62412ddbc8080d502a0d959d7610686eacb1329263ee4f0091d3',
        'fadbb5c90f431d00d5a34528962e0da583f842ec75dd42266df3de1a3c1b0b04'),
    'validate-fan/missing-file': (['validate-fan', 'missing.json'], 2,
        '4d9a8c6bc8f971be6a3c89ac69555fa280d6e63d4c5de6cfecbcec369f7f1e25',
        'e088467e28c9ab0f82a3ccb7bb4bc41645d2bcb10215e8b20e9f6e52f94c55ef'),
    'validate-filt/ok': (['validate-filt', 'filt.json'], 0,
        '1fb743f844889a388c6b60bcd0a37071377efa20b6da1c1c4f78478a84c21e35',
        'd510c07af1cf2ab9e05b093a34c010cc5036b5f7c0909c5de5dcf594828d0b21'),
    'validate-filt/not-full': (['validate-filt', 'not_full.json'], 1,
        '1771b3685d2252773dd6bfbe7e8689e236494cda213b89504e970c818b764147',
        'c90b57ae7e41cfca6f038eba44277dff2df5758c48c3cd69f7bf81ed49dd3c35'),
    'validate-filt/not-nested': (['validate-filt', 'not_nested.json'], 1,
        'd3362d501d8019ca3a122132d11af58efa9f28ef3354251d6fe6e6aff027b6c9',
        'c90b57ae7e41cfca6f038eba44277dff2df5758c48c3cd69f7bf81ed49dd3c35'),
    'validate-filt/float-literal': (['validate-filt', 'float.json'], 2,
        'e809db3ad5ff40bdd5b0eb497f7a611e0d6696461a19a5ba5ff5e2d7603aeea2',
        'dfcf4b69a80bf1cd38c5d9e005b52d1cad690982c8db317ac547e025d49e6180'),
    'compat/compatible': (['compat', 'filt.json'], 0,
        '601af499b5b9f00b9e8852ee1b50bdd89fd675ecd8b7009138788c28b71b4648',
        'bbf5e542976a4f4b690c0467c2d245f64871f093a7eaf80a22527905e9e34862'),
    'compat/incompatible': (['compat', 'four_lines.json'], 1,
        'b7045e4aacf85dbc3d84efbbee2576d108a49227bb3d2e6bd19d18463214bdad',
        '95288ea45a0049dc7e2a2ddc1482b5acd24abb33a3fe4b9850c44f4a900f0b47'),
    'compat/cone-certificate': (['compat', 'filt.json', '--cone', '1'], 0,
        'b39cb2f84fae68e91ae46d5224ec8d030a2784e8e6b734170f0855e748d025a2',
        '609ec8c369b0651080917c7d99203ca6627bd7eb86ffd469e4fff42c5827d115'),
    'compat/cone-refutation': (['compat', 'four_lines.json', '--cone', '0'], 1,
        'f63e32073807b7a2746edff7c60883d3f1e55c0aded81b545f8f2aa87b118e47',
        '8ef112a0e82353aab97cd35c4033abefb76f3fca61924f3d0e327a472e4b942f'),
    'compat/cone-out-of-range': (['compat', 'filt.json', '--cone', '3'], 2,
        '847507937579f255c75c09362b2244fe3545884f20579a20a49b082dc951f3fa',
        'c1b1fd92d915f0998b4d78e42532f762f02344ffe7a8450206dd3b76601b2bb3'),
    'compat/negative-cone': (['compat', 'filt.json', '--cone', '-1'], 2,
        '847507937579f255c75c09362b2244fe3545884f20579a20a49b082dc951f3fa',
        'c1b1fd92d915f0998b4d78e42532f762f02344ffe7a8450206dd3b76601b2bb3'),
    'compat/invalid-data': (['compat', 'not_full.json'], 2,
        '4d4f00e589d2f8068a7987a6223833b89af6fbb79d5eb958d8b15cdd4d21eb93',
        '96188ea130a597743f18b1a190c24a956828feaa782660ad1c7093c1a0fd189e'),
    'compat/missing-file': (['compat', 'missing.json'], 2,
        '75d9af1f3d51c915afdf7227700c68bb6a19fe62851c15f919e817f6d381c581',
        'e088467e28c9ab0f82a3ccb7bb4bc41645d2bcb10215e8b20e9f6e52f94c55ef'),
    'tensor/ok': (['tensor', 'filt.json', 'filt_b.json'], 0,
        '15c4925bcf733019c30263312a4ded7b90fd242837c56d9fb5e5901eb11db59d',
        '6ed07ecd744727a7d2cfd34864bb44b3469a341bb8a7445d268aa566250529ef'),
    'tensor/different-fans': (['tensor', 'filt.json', 'filt_p1.json'], 2,
        'd7b19b28c3540fe7374ea06cd53bce3e0cde906d59677526340e5e09df5e16e7',
        '09f4fb7a9f19bd53d085c556ddee3eec5cb9c3b4a99c9f856f890471a140fa5b'),
    'tensor/not-nested': (['tensor', 'not_nested.json', 'filt_b.json'], 2,
        'e507a6afc79520f04a7caf52fcd641e7fc9625371c053ce517aa134ebb001779',
        'd8512cae535fd7dba137ce4b87d387894fa1c3be97b08593709fe27da3d0d5b0'),
    'dual/ok': (['dual', 'filt.json'], 0,
        'aa796f826b621a1eb9e72878978cb6448d0bebb63157d940dac42859b025b72b',
        '72ce24f8ab2857c1af8863f11e0c716a4c4d5207ecf891c2ede379ac20c01a8e'),
    'dual/float-literal': (['dual', 'float.json'], 2,
        'd1978e8b8b45c95fe07d6cb2759240c95d36c3e335f6e7315264c16e12de7dae',
        'dfcf4b69a80bf1cd38c5d9e005b52d1cad690982c8db317ac547e025d49e6180'),
    'dual/not-nested': (['dual', 'not_nested.json'], 2,
        'fdf06f165db343ec265fddec47e0b8c668630d216f61a03ebefad31948e2a0fb',
        'd8512cae535fd7dba137ce4b87d387894fa1c3be97b08593709fe27da3d0d5b0'),
    'dual/not-full': (['dual', 'not_full.json'], 2,
        'c70473ec1c15712bc6f93ca3fe5d72ad8c6042be46acc26980079172d755f6af',
        '414e6e3af842f7e23f89ca9df7bb70b942ad0dac43766db19a6ad3f13860ecb8'),
    'dsum/ok': (['dsum', 'filt.json', 'filt_b.json'], 0,
        'dd974b6b5e9e621201ee4f1cc49eb7a7dfda32ad84f672efb7e8afe1d957e534',
        '2b027e6d87f7ce32242166b74026e017d7dd99fae68a7a48e50f63473dc1714f'),
    'dsum/different-fans': (['dsum', 'filt.json', 'filt_p1.json'], 2,
        '5b5d3ed4f0b839121fd026d0d2fb38a370ae44785204f503896d9b8ff46b7a8f',
        '09f4fb7a9f19bd53d085c556ddee3eec5cb9c3b4a99c9f856f890471a140fa5b'),
    'dsum/not-nested': (['dsum', 'not_nested.json', 'filt_b.json'], 2,
        '1378dd79e0f60d096494b060fe776d4e4b36e827654ead96f0903522ea7b9140',
        'd8512cae535fd7dba137ce4b87d387894fa1c3be97b08593709fe27da3d0d5b0'),
    'morphism/holds': (['morphism', 'one.json', 'line_low.json', 'line_high.json'], 0,
        '5e2d392d53dcf7fda7abca08183d59068c43a5c601311f61eeaf06c54b91ee75',
        '16c51d94e8859e0058301ffd3fce4079319a17bec58458c63537d4b759ea7e01'),
    'morphism/fails': (['morphism', 'one.json', 'line_high.json', 'line_low.json'], 1,
        '3ad06fd85600317453b859d9bee1724bf754f122aca6909bc5008aa3772eb344',
        '5a70247032d88847de483eb2d80c76ff192b263153dec555fefae839cf67ed8f'),
    'morphism/not-full': (['morphism', 'one.json', 'not_full.json', 'line_low.json'], 2,
        '2038e7346f1b7230ec2de42c6ff20b845595856569cf42bd36f6f5a8786268f1',
        '414e6e3af842f7e23f89ca9df7bb70b942ad0dac43766db19a6ad3f13860ecb8'),
    'morphism/shape': (['morphism', 'one.json', 'filt.json', 'filt_b.json'], 2,
        '872149e968d2b588ff9ef2700a60cd05bd7054635a6ea7f2d0504ecb36df3e17',
        '2fc8e4a9eb3b506262e9f067c9cec61531193798d61750acd139a933238dd236'),
    'validate-bundle/ok': (['validate-bundle', 'bundle.json'], 0,
        '8a2c185469bf31ea8f74dfa50e7c4fb87e82fb2ddbc234576e27b80ce1477db9',
        'f5361333ee1fe81ff772cf98dc68968f492c8b1fc8d132acfc10f03e7fde61db'),
    'validate-bundle/singular': (['validate-bundle', 'singular.json'], 1,
        'ce43f69b0a31d4078357effab86e5736d01ccde2991750c0dfbac461e357a22f',
        '32a04996b45254e4e3cdb6bd7c8e020cad39669af7f77ac20f32b8b2965fbe8a'),
    'validate-bundle/missing-file': (['validate-bundle', 'missing.json'], 2,
        'b95c006ea482a5750abf8ea28a588c6791917177172e62c6b8725cc29cbde207',
        'e088467e28c9ab0f82a3ccb7bb4bc41645d2bcb10215e8b20e9f6e52f94c55ef'),
    'glue/glues': (['glue', 'bundle.json'], 0,
        'd56da5b3ca9327fab72cc973475da0a17ac69ee19cd2b5c99fe22c720ff18d5c',
        '5e5e7922207ca2451f98570a4153f08788cc79fc58c6962a0a25cc5ecae94cc7'),
    'glue/fails': (['glue', 'broken.json'], 1,
        '0f7b9e402cf1a6ddd81e776bd9241404ec00d79e2bd8c1bdf1ad03c01d0a11da',
        'f2180c13f3c2ddab536dc0fea0b8d33e69dd3cce3231dcce3caf92eab709ec3b'),
    'glue/unused-ray-fails': (['glue', 'unused_ray_broken.json'], 1,
        '0f7b9e402cf1a6ddd81e776bd9241404ec00d79e2bd8c1bdf1ad03c01d0a11da',
        'f2180c13f3c2ddab536dc0fea0b8d33e69dd3cce3231dcce3caf92eab709ec3b'),
    'glue/invalid-bundle': (['glue', 'singular.json'], 2,
        '6d986b5e0e93069aacab2b369b7b013191b3336f34cc246760d12601129017e0',
        'ed69f33861b90febe4656166b5f8af65eadb477dc9a770f149e9524068ecdbe7'),
    'assoc/ok': (['assoc', 'tangent.json'], 0,
        '2d201a1b7943d0eee535111f94f348244172235df86fc0ab90184f53c618b2d3',
        'fc5dc2e8fe6ee7ac0965ccb7121801728b6e692352eaf6c2fcd66573a98b4158'),
    'assoc/inconsistent': (['assoc', 'broken.json'], 1,
        '37425bb5f1c7332e821c4421ad3cf37d4af1332b009a9fb76a1508a8fb091cf3',
        '866d8567612468cadedbb8ad5b3b65aa7beebf048f13ec240d40444d826187c8'),
    'assoc/invalid-bundle': (['assoc', 'singular.json'], 2,
        '0804e010c633f371c12452436295d5ec49c0c05e3faa0b056a48b6d738101375',
        'ed69f33861b90febe4656166b5f8af65eadb477dc9a770f149e9524068ecdbe7'),
    'assoc/unused-ray': (['assoc', 'unused_ray_broken.json'], 2,
        '93fa0b8ecdc5b5b24637329fd658a62dc28a444efaf1b39cf152fa33b874f5c0',
        '7f758eafc608a8038ba11fb2357164d73c38f8fb88bed46241d732e4e078a96c'),
    'algebra-check/all-cones': (['algebra-check', 'bundle.json', '--degree', '2'], 0,
        '9347111d8818a414759b7ecc4a203d3490fdcaffb11afced48a834e2724d4777',
        'a16c1b0323905d57f79be4b15375374a9fa5c80e3137781a40d36794a4a2306b'),
    'algebra-check/one-cone': (['algebra-check', 'tangent.json', '--cone', '1'], 0,
        'd92e32d7ae43f2af00af8e58ea123e0281160f79247d9fa0c892505fce10e211',
        'a16c1b0323905d57f79be4b15375374a9fa5c80e3137781a40d36794a4a2306b'),
    'algebra-check/cone-out-of-range': (['algebra-check', 'bundle.json', '--cone', '3'], 2,
        'f27462fe5291930bac608a31b7270c6db3b8f427100e9f26cd5837a4924b7130',
        'c1b1fd92d915f0998b4d78e42532f762f02344ffe7a8450206dd3b76601b2bb3'),
    'algebra-check/over-budget': (['algebra-check', 'sl_ok.json', '--degree', '100'], 2,
        '40e1f435565a710250f79f688eba24d445d9e512b1a441ff646c57c0b1fa0b6a',
        '2c49527e6ffe0aa761e5bac1e8b57b6222ea22a107e59490801b39900d50319a'),
    'reduce/sl-reduces': (['reduce', 'sl_ok.json', '--to', 'sl'], 0,
        '1b76e962452ede169904e867b068d76f866aabd9fea147dd450ccefc1edf7437',
        '40ca3da68d3ca4d76477de67272731efb444e0e0ee8bb2dc9ef53c3c7cb9bb43'),
    'reduce/sl-fails': (['reduce', 'sl_bad.json', '--to', 'sl'], 1,
        '1f2bf049e1f4f58904dda9694618708e42f103e5e8c6cf8933a96aeed2bbf215',
        '61a1d1b0ac2cfc47108bb1234a2814b184f70caa8311b3623c46f3f565b78c96'),
    'reduce/torus-reduces': (['reduce', 'bundle.json', '--to', 'torus'], 0,
        '1618d08defecd8501e0a71880dc7930aa8b70e5b03056f0b72e91fc68cffe0d4',
        '41d4d33170b2440fb400c4696cc5957ef43a767defed383cccdf4f3bda06fccb'),
    'reduce/torus-none-found': (['reduce', 'tangent.json', '--to', 'torus'], 1,
        'aea701a576496e1a4a3867de245470749979636e0e4563f57de666092da00e07',
        '5e19a1585c194a69dd01bab6e963297fd99b193a6e9220e640f9439422838394'),
    'reduce/not-glued': (['reduce', 'broken.json', '--to', 'torus'], 2,
        '36a91c4201580d721253be9d840179928a995641d4cffe4553aaf197fbc4cff9',
        'd425ffec7cc7bf5a0343b8b01ca52882af648a73cd5d38318a6640829bfc72fe'),
    'selftest/seed-0': (['selftest', '--seed', '0'], 0,
        '1370a8cedb4e43032b73d5ad019ed9570736b69f33a58825609c5e89a61cd97e',
        '13b26c4713e9a6044bd5a632561cfe1e24511312339245396dbb7d5b90edb838'),
}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    work = tmp_path_factory.mktemp("cli")
    for name, obj in _inputs().items():
        (work / name).write_text(obj if isinstance(obj, str) else json.dumps(obj),
                                 encoding="utf-8")
    return work


def _sha(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def run_snapshot(argv, capsys):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, _sha(captured.out), _sha(captured.err)


@pytest.mark.parametrize("label", sorted(SNAPSHOT))
def test_cli_output_matches_snapshot(label, workdir, capsys, monkeypatch):
    argv, code, out, err = SNAPSHOT[label]
    monkeypatch.chdir(workdir)
    assert run_snapshot(argv, capsys) == (code, out, err)
