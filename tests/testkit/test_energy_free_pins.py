"""Every byte-pinned run, with its energy removed, is pinned too.

The golden fingerprints and the event-plane pins hash a whole
:class:`~repro.testkit.trace.RunTrace`, so a change to how energy is
accounted moves them even when the run itself does not.  These values hash
the same traces with every ``energy_*`` key dropped from ``to_dict()``: a
change that re-pins the full fingerprints for energy alone leaves them as
they are, which shows that energy moved and nothing else did.

The values were recorded on the tree whose meters kept running float sums
per category, the last one before they kept integer operation counts.
"""

import hashlib
import json

import pytest

from repro.eval.runner import run_protocol
from repro.testkit.trace import RunTrace, TraceRecorder
from tests.testkit.test_per_receiver_expansion import spec_for

#: case (as in ``test_per_receiver_expansion.spec_for``) -> sha256 of the
#: canonical trace encoding without its energy keys.
ENERGY_FREE = {
    "golden/eesmr": "fe7ee46fca92c4349ae05868de78ee21f04f2b528882beebaa855d71519fe1c1",
    "golden/optsync": "059312438aaaa450d9444488b54b66e7092eed225cae682ac21e540e27585009",
    "golden/sync-hotstuff": "521e28e6021164b43911b2e8e5d3cee47312489fafa8267c65a11628edd61260",
    "golden/trusted-baseline": "0926e3a2aba8cc968f0a74bc4130c91ccd3089a14f56a10040d51718dc14582e",
    "golden/wifi-n9": "3be740a2359d8d7a9abd21dbb440cf27c38a9fc6b455336c61afc3dffe5df05d",
    "lossy/eesmr": "ca18a070b3fd9fbec22a38e380e2d49b95b4ed743eba3b2019634ae71d4d6366",
    "lossy/sync-hotstuff": "bdedddaca858186610d13b37749ac15c3c07aec24b1aff378d8ed72503e20738",
    "lossy/optsync": "c3f0cad9b2e0906ac66ee6f3076ffe5747e344e2c7a403ab67a5990bbe08505f",
    "lossy/trusted-baseline": "faee348bb37f2e68f862cee8bd8e76347696c1af1538f919bf738cc9aeb64152",
    "giveup/eesmr": "0bbde6a3eaf90a6e29514aac38b285b89f5e97b39f59d89887abdc70d264c3ec",
    "giveup/sync-hotstuff": "d6fb1f55ec45ca97e0facc09dce81fe88847634ab40a6c7e0f0c8428b67f6989",
    "giveup/optsync": "4f1e9acbc72b464d147ace4f911b21b083f0224fd8fa5422d3ae2cfb545fad6d",
    "giveup/trusted-baseline": "b8ce08c2b2f21df9e833643194cb3e92497355e956cc51c2f4e9e6c4e1d8c578",
    "silent_leader/eesmr": "6c234833b655786bb0e7cb80c61e9dd29e66802cbdda6dc6a22aeb9fe38a3469",
    "equivocate/eesmr": "bed3531f3a6ebf250dfa314d68c03b83e6fac2335bc6258ca7f7e3d8c67b188c",
    "crash/eesmr": "837e8d87be6da11fb5f67432855f48a4534d081137f4741e94c93dc0423a3119",
    "silent_leader/sync-hotstuff": "bd80b2af22b38aac14bd43030375825cdaf9296ec60ab206004de31e9feb2779",
    "equivocate/sync-hotstuff": "a865e431c966f962c91222c583bf4a415f6b8281a1911caec0e6941473a45a09",
    "crash/sync-hotstuff": "eb20cb090d10b463c218f328c37233940143e78b9bbce7116dad0a53e8746454",
    "silent_leader/optsync": "2883832a69074ea62acf0b22e1335d3fc0d3cac28c9e820bfcb52cc1f19ac7a2",
    "equivocate/optsync": "151a120a8d6bee28a2921ea482445b6be14befb46fdd4a13f4e72c1b3e00e9e0",
    "crash/optsync": "4f0d64c19b5bc871f4bbf7c49272d1e7de9441e32937f63507971366fe866f2e",
    "stacked/eesmr": "b9d56e09218e3a79f41f84ce295994046cbbf390d7c0d3fcc6bc4d4a72d98d02",
    "stacked/sync-hotstuff": "ef524a0bdfc9fca651c576447f544572c636b38d117145efff736aa54b4b8743",
    "stacked/optsync": "902bbe00ca28bf8a7f97d84fec3065a29a4b406d1bd46b8e2405c614fce051a2",
    "stacked/trusted-baseline": "49b9927e196df654d0c2459f569de82c4d8cb5463db9b236a8bd411f9a64a688",
    "stacked-lossy/eesmr": "622aa39b6d0c77ecdd6784d2c2a98b684a33dff4b261f671c0cdfeffb82b9ba6",
    "stacked-lossy/sync-hotstuff": "a8b2cd4972b1a324ee370c541599ea2abea80438eb592d2bb5224ca71b571690",
    "stacked-lossy/optsync": "a4cf3d190871cef7a02d1c9819ef575b4783800ab64d957098653dab04eb0c16",
    "stacked-lossy/trusted-baseline": "22466c1eb2285ffcc8bb699735c8c3ab690f19dfaee551a2147e486e7ab55018",
}


def energy_free_fingerprint(trace: RunTrace) -> str:
    view = {key: value for key, value in trace.to_dict().items() if not key.startswith("energy_")}
    return hashlib.sha256(json.dumps(view, sort_keys=True, separators=(",", ":")).encode()).hexdigest()


@pytest.mark.parametrize("case", list(ENERGY_FREE))
def test_pinned_run_without_its_energy_is_unchanged(case):
    trace = run_protocol(spec_for(case), recorder=TraceRecorder()).trace
    assert energy_free_fingerprint(trace) == ENERGY_FREE[case]
