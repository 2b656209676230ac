"""The byte pins a change to OptSync alone must leave as they are.

Every byte-pinned run that is not an OptSync run, held here as a literal:
the golden, event-plane, ``PER_RECEIVER``, ``PER_BLOCK_COMMIT``,
energy-free and plan-invalidation values of the EESMR, Sync HotStuff and
trusted-baseline cases.  The pin files run each case and compare it with
their own table; this file compares those tables' non-OptSync entries
with the values below.  A commit that re-pins OptSync's cases, and leaves
this file unedited, therefore shows that no other protocol's run moved.
"""

import pytest

from tests.net.test_plan_invalidation import UNCOMPILED
from tests.testkit.test_energy_free_pins import ENERGY_FREE
from tests.testkit.test_event_plane_pins import PINS
from tests.testkit.test_golden_fingerprints import GOLDEN, GOLDEN_WIFI_N9
from tests.testkit.test_per_receiver_expansion import PER_BLOCK_COMMIT, PER_RECEIVER

#: pin table -> case -> its value, for every case that is not OptSync's.
HELD = {
    "golden": {
        "eesmr": "3170437f2e68d051e0ddba9c37ef6ef3eb646adc45c22289fe4e8ed91a6e0987",
        "sync-hotstuff": "ead7a85bad1d4ac8bcb3feb808b0aa0105eba69d5b0ccaf7d394c4d76b042ae7",
        "trusted-baseline": "02836a6801149b749e157dcef8af917799b1c6ee089515c1339ba7be240a6c5e",
        "wifi-n9": "f73c60d61f449691c2c23a236acb60040ec17f597f0fcb12ab429176a92156ae",
    },
    "event-plane": {
        "lossy/eesmr": "d6d3b5891baade3c29e8efb022d9fd09b94ffd0c0f6ec6d4b459507ff5ff9946",
        "lossy/sync-hotstuff": "6fa767419e7b7de8c3b5d3c211b90d584c70e53c8861a14e5717c0a6a3439023",
        "lossy/trusted-baseline": "d54ffe76bd90867bc102c98735e7a3406d7dab0c4e35ad49d4b812a14af7f4cf",
        "giveup/eesmr": "ed5bb40f186ea1ac2e7fe165cbc2a0d5f276778d8b2faaec1954e40193de2df4",
        "giveup/sync-hotstuff": "2ed7be69770f164c44833cc72dca951758cea3eecd46a6cdffc36335d17c3df8",
        "giveup/trusted-baseline": "2a631eee9b9f32c1ff5313e4eb5c131cd7ab317b3e57c5282c2445e4b3e00f83",
        "silent_leader/eesmr": "0811eb590d5f1133d4419e475890909b1d198b02d5ca9dbc6e44a92d9a3c9e1f",
        "equivocate/eesmr": "0867eb08b876813ff3f0c09c52a43665abe8a595fea65e0165a7b6c48613ca08",
        "crash/eesmr": "bc61199c35665d2bbc2c3370e4d0ef223a4a6cab0e292d52cf393940aafa9f07",
        "silent_leader/sync-hotstuff": "48661fa45d6115dfb175b67ea08f21a84198e18521f83e22ae651e2b7fbb61a9",
        "equivocate/sync-hotstuff": "c26cb55c2ababbe3d6ee302ed718be26f3b9ae21e63eaea976b3048c24dfa35d",
        "crash/sync-hotstuff": "1195bea95adcf3ec3cbc83ec37d99f6a4e957c1d5c189c460b519ee242977807",
        "stacked/eesmr": "709e9ed146dde2ba04c5b682717f2beac248766b1ce74c3841994dd96a25efb9",
        "stacked/sync-hotstuff": "344a2b8c8cad98d739e9760b6595346b93a778667033f8129f578353a6e6301e",
        "stacked/trusted-baseline": "8ba8db6d07642065c2b1196f8164ca9acda9d39e1a6f50df37b7f4ff4285cf9a",
        "stacked-lossy/eesmr": "95466a081de2d6fa7e0d8641b42c4168120083dde29cde7dbb6a2e367ba85924",
        "stacked-lossy/sync-hotstuff": "e763f6acbb659fcc2516dd570de615d6be008654331420f1613c6c4f0ddc5f9a",
        "stacked-lossy/trusted-baseline": "4503f0c697170ff822544eb4a480064c964fbd927255af90ead8f9b4ce539218",
    },
    "per-receiver": {
        "golden/eesmr": "594b01d459121346493927fba29678be3a89d11d9e860ef0d2e6df8abcd49eb0",
        "golden/sync-hotstuff": "2f128073a71f06aeb44db19341131b01d4d8077c4fc021fde5a2b9bb1956d75e",
        "golden/wifi-n9": "d88207365e187541bd4f6391f61717bec3cb211e91075d927838720b6026b80f",
        "relay-drop-window": "74fc63f7375352062a8374d2d185e853d809fc4551578c61f9b1e7be15f30f07",
        "partition-heal": "382ef5894ded9a5c744d9808f13267717d3b0e82f64869f25317bc606a39912f",
        "silent_leader/eesmr": "680bfdbed92ffe045f521edb7f5e4832abf1cbe5d1574d261cb8c3a65ad52dd8",
        "equivocate/eesmr": "29448bf309a5b86e2d0cc727d609dff9c7fec6381e7c652b799df9906d85ef59",
        "crash/eesmr": "fcf437091c99b4707b2060a32a8ddc80b4b0acc283093114d3d853d1c155a087",
        "silent_leader/sync-hotstuff": "10350cb1ad0cfedf71b951952a94f6e7e5476a5c4fa867d6356eee10bb78289c",
        "equivocate/sync-hotstuff": "ebdf08ce2994687e2d1c37ecde666c3aae04d745a5295f7368792f17d433193d",
        "crash/sync-hotstuff": "2703f17495efb2a6f307c00679f1d7bf6c4149c087719990fd0bd6f6169b7adf",
        "stacked/eesmr": "f4506771c5b0f243b4e7bbe09d6cc406538cf71c745a9c2d1464cbb72f9700f1",
        "stacked/sync-hotstuff": "3aa6bb88e10d54d3d6a37e40ddeaa919514717774a467a00003ac01e553bb7fb",
    },
    "per-block-commit": {
        "golden/eesmr": "27bd7670d10dad3a2090a4066ea2a16624d05189557f9454731316f293de8646",
        "golden/wifi-n9": "2e065e53afef46ff74faab766cfd8548763a21e963c0fc0ca6b311ef72851f8f",
        "relay-drop-window": "67c39237c2626c47f8878b2487318c7742895241cbac4c2f698008a04a982dd8",
        "partition-heal": "eecf5d742ae37e85f112e3b481fcbae467fef5c1da3f0ef393e0850f817b5645",
        "lossy/eesmr": "20375c600a48e9ac3b814489877a058304c1a5f1885cbcebb348fb9b4d4f66cb",
        "giveup/eesmr": "82cde07077451cdf5cf420875e89c099658c4db233e01270b8feb0bfab8e9db5",
        "silent_leader/eesmr": "02791ff0fe2a13eb73b1df6aa87bf286f4ad00b76ad3147d37151cd01e2e85e9",
        "equivocate/eesmr": "98c3f4c713dd3f73c5c62cc7829879fb27892de859f5061203b58ba1bc8b72cd",
        "crash/eesmr": "2dcde42d413135aab3d8b9766eb4cf9a966979008cc44cdee0f3a931aca068c7",
        "stacked/eesmr": "0fc0ca5663c95c9cc6c54c64d2219f73c73fa08b97e49a3370f3d5863b459f28",
        "stacked-lossy/eesmr": "5c109ed7a0830d5885e77bae2e19901914c051b44a2ac16e8e89a9789a69cd2f",
    },
    "energy-free": {
        "golden/eesmr": "fe7ee46fca92c4349ae05868de78ee21f04f2b528882beebaa855d71519fe1c1",
        "golden/sync-hotstuff": "521e28e6021164b43911b2e8e5d3cee47312489fafa8267c65a11628edd61260",
        "golden/trusted-baseline": "0926e3a2aba8cc968f0a74bc4130c91ccd3089a14f56a10040d51718dc14582e",
        "golden/wifi-n9": "3be740a2359d8d7a9abd21dbb440cf27c38a9fc6b455336c61afc3dffe5df05d",
        "lossy/eesmr": "ca18a070b3fd9fbec22a38e380e2d49b95b4ed743eba3b2019634ae71d4d6366",
        "lossy/sync-hotstuff": "bdedddaca858186610d13b37749ac15c3c07aec24b1aff378d8ed72503e20738",
        "lossy/trusted-baseline": "faee348bb37f2e68f862cee8bd8e76347696c1af1538f919bf738cc9aeb64152",
        "giveup/eesmr": "0bbde6a3eaf90a6e29514aac38b285b89f5e97b39f59d89887abdc70d264c3ec",
        "giveup/sync-hotstuff": "d6fb1f55ec45ca97e0facc09dce81fe88847634ab40a6c7e0f0c8428b67f6989",
        "giveup/trusted-baseline": "b8ce08c2b2f21df9e833643194cb3e92497355e956cc51c2f4e9e6c4e1d8c578",
        "silent_leader/eesmr": "6c234833b655786bb0e7cb80c61e9dd29e66802cbdda6dc6a22aeb9fe38a3469",
        "equivocate/eesmr": "bed3531f3a6ebf250dfa314d68c03b83e6fac2335bc6258ca7f7e3d8c67b188c",
        "crash/eesmr": "837e8d87be6da11fb5f67432855f48a4534d081137f4741e94c93dc0423a3119",
        "silent_leader/sync-hotstuff": "bd80b2af22b38aac14bd43030375825cdaf9296ec60ab206004de31e9feb2779",
        "equivocate/sync-hotstuff": "a865e431c966f962c91222c583bf4a415f6b8281a1911caec0e6941473a45a09",
        "crash/sync-hotstuff": "eb20cb090d10b463c218f328c37233940143e78b9bbce7116dad0a53e8746454",
        "stacked/eesmr": "b9d56e09218e3a79f41f84ce295994046cbbf390d7c0d3fcc6bc4d4a72d98d02",
        "stacked/sync-hotstuff": "ef524a0bdfc9fca651c576447f544572c636b38d117145efff736aa54b4b8743",
        "stacked/trusted-baseline": "49b9927e196df654d0c2459f569de82c4d8cb5463db9b236a8bd411f9a64a688",
        "stacked-lossy/eesmr": "622aa39b6d0c77ecdd6784d2c2a98b684a33dff4b261f671c0cdfeffb82b9ba6",
        "stacked-lossy/sync-hotstuff": "a8b2cd4972b1a324ee370c541599ea2abea80438eb592d2bb5224ca71b571690",
        "stacked-lossy/trusted-baseline": "22466c1eb2285ffcc8bb699735c8c3ab690f19dfaee551a2147e486e7ab55018",
    },
    "plan-invalidation": {
        "fault-free": "3170437f2e68d051e0ddba9c37ef6ef3eb646adc45c22289fe4e8ed91a6e0987",
        "relay-drop-window": "a47e711f82688c387c9590fe95b85837fc93d9a3b21642b3914ebc865259aae8",
        "partition-heal": "0ee7187103f472b37293788108f6ecedb8465ecba86dbe11c475bd83300cc70f",
    },
}

#: pin table -> the table as its file holds it.
TABLES = {
    "golden": {**GOLDEN, "wifi-n9": GOLDEN_WIFI_N9},
    "event-plane": PINS,
    "per-receiver": PER_RECEIVER,
    "per-block-commit": PER_BLOCK_COMMIT,
    "energy-free": ENERGY_FREE,
    "plan-invalidation": {case: value for case, (_, value) in UNCOMPILED.items()},
}


@pytest.mark.parametrize("table", list(HELD))
def test_every_pin_but_optsyncs_is_held(table):
    pinned = {case: value for case, value in TABLES[table].items() if "optsync" not in case}
    assert pinned == HELD[table]
