"""Every byte-pinned run: one row per run, one SHA-256 per trace section.

Each run in ``SPECS`` is pinned by the SHA-256 of four sections of its
``RunTrace.to_dict()``, in the trace's canonical encoding: ``spec``;
``events`` (``events``, ``executed_events``, ``sim_time``); ``energy``
(``energy_counts``); and ``outcome``, every other field (committed chains
and commands, network counters, certificates, replica statistics, safety).

``golden/*`` is fault-free steady state.  ``lossy/*`` and ``giveup/*`` run
open-loop arrivals on an impaired wire: the lossy runs retry and recover on
floods and unicasts, the give-up runs exhaust ``max_retries=2`` and resolve
most drops by implicit ACK.  ``<behaviour>/<protocol>`` runs the view-change
timers and unicasts behind a faulty leader; ``stacked*`` stacks every window
kind on a clean and on a lossy wire.  ``relay-drop-window`` and
``partition-heal`` open and lift a relay denial and a partition mid-run, so
each transition must invalidate the compiled dissemination plan where a
per-hop read of the network state would see it.

An optimisation keeps every section of every run.  A change that means to
move a run re-pins in one commit that contains nothing else: it edits only
the sections it declares, and its message lists old -> new for each value
it edits.  Each section of each run is its own test, so the failing ids
name the sections that moved, and each failure lists every moved section of
its run; one the change did not declare is a regression, not a re-pin.
"""

import json
from dataclasses import replace
from functools import cache

import pytest

from repro.core.adversary import FaultPlan
from repro.crypto.hashing import sha256
from repro.eval.runner import PROTOCOLS, DeploymentSpec, run_protocol
from repro.net.impairment import ImpairmentSpec
from repro.session import SessionObserver
from repro.testkit import faults
from repro.testkit.trace import RunTrace, TraceRecorder
from repro.workload import OpenLoopPoisson

REPLICATED = ("eesmr", "sync-hotstuff", "optsync")
LEADER_FAULTS = ("silent_leader", "equivocate", "crash")

#: section -> the ``RunTrace.to_dict()`` keys it hashes; ``outcome`` hashes the rest.
SECTIONS = {
    "spec": ("spec",),
    "events": ("events", "executed_events", "sim_time"),
    "energy": ("energy_counts",),
}

#: The ``lossy-openloop-n7`` bench workload's medium.
LOSSY = ImpairmentSpec(loss=0.1, duplicate=0.05, jitter=0.25, ble_calibrated=True)
#: Heavy loss with a two-retry budget: chains give up or are ACKed implicitly.
GIVEUP = ImpairmentSpec(loss=0.4, duplicate=0.2, jitter=0.5, reorder=0.2, max_retries=2)
#: The wire of the ``stacked-lossy`` runs.
STACKED_LOSSY = ImpairmentSpec(loss=0.2, max_retries=2)

#: Every window kind at once: a drop window over a crashed (permanently
#: denied) node, interleaved drop windows, overlapping partitions, nested
#: loss windows, a jitter window and a crash-recover cycle.
STACKED = faults.FaultSchedule(
    (
        faults.CrashAt(1, 0.0),
        faults.RelayDropWindow(1, 1.0, 4.0),
        faults.RelayDropWindow(6, 1.0, 5.0),
        faults.RelayDropWindow(6, 3.0, 7.0),
        faults.PartitionWindow(5, 2.0, 6.0),
        faults.PartitionWindow(5, 4.0, 8.0),
        faults.LossWindow(4, 1.0, 9.0, 0.5),
        faults.LossWindow(4, 3.0, 6.0, 0.5),
        faults.JitterWindow(3, 2.0, 6.0, 0.5),
        faults.CrashRecoverWindow(2, 1.0, 5.0),
    )
)

#: ``(time, node, kind, active)`` of the clean EESMR run, in firing order.
#: The drop window on crashed node 1 reports nothing: its relay was never
#: granted and never comes back.
STACKED_TRANSITIONS = [
    (1.0, 6, "relay-deny", True),
    (1.0, 4, "impair-loss", True),
    (1.0, 2, "partition", True),
    (2.0, 5, "partition", True),
    (2.0, 3, "impair-jitter", True),
    (3.0, 4, "impair-loss", True),
    (5.0, 2, "partition", False),
    (6.0, 4, "impair-loss", False),
    (6.0, 3, "impair-jitter", False),
    (7.0, 6, "relay-deny", False),
    (8.0, 5, "partition", False),
    (9.0, 4, "impair-loss", False),
]


def golden_spec(protocol: str) -> DeploymentSpec:
    return DeploymentSpec(protocol=protocol, n=5, f=1, k=2, target_height=3, seed=17)


def open_loop_spec(protocol: str, impairment: ImpairmentSpec, target_height: int) -> DeploymentSpec:
    return DeploymentSpec(
        protocol=protocol, n=7, f=2, k=2, target_height=target_height, block_interval=0.5,
        batch_size=8, txpool_limit=32, seed=17,
        workload=OpenLoopPoisson(rate=0.5, clients=3), impairment=impairment,
    )


def faulty_leader_spec(behaviour: str, protocol: str) -> DeploymentSpec:
    return DeploymentSpec(
        protocol=protocol, n=7, f=2, k=2, target_height=8, seed=17,
        fault_plan=FaultPlan(faulty=(0,), behaviour=behaviour),
    )


def stacked_spec(protocol: str, impairment: ImpairmentSpec | None = None) -> DeploymentSpec:
    return DeploymentSpec(
        protocol=protocol, n=7, f=2, k=3, target_height=5, block_interval=2.0, seed=5,
        fault_schedule=STACKED, impairment=impairment,
    )


#: case -> the spec of its run.
SPECS = {
    **{f"golden/{protocol}": golden_spec(protocol) for protocol in PROTOCOLS},
    "golden/wifi-n9": DeploymentSpec(
        protocol="eesmr", n=9, f=2, k=2, target_height=4, seed=99, medium="wifi"
    ),
    **{f"lossy/{protocol}": open_loop_spec(protocol, LOSSY, 30) for protocol in PROTOCOLS},
    # Height 12: past it, loss 0.4 breaks the synchrony bound the protocols assume.
    **{f"giveup/{protocol}": open_loop_spec(protocol, GIVEUP, 12) for protocol in PROTOCOLS},
    **{
        f"{behaviour}/{protocol}": faulty_leader_spec(behaviour, protocol)
        for protocol in REPLICATED
        for behaviour in LEADER_FAULTS
    },
    **{f"stacked/{protocol}": stacked_spec(protocol) for protocol in PROTOCOLS},
    **{f"stacked-lossy/{p}": stacked_spec(p, STACKED_LOSSY) for p in PROTOCOLS},
    "relay-drop-window": replace(
        golden_spec("eesmr"), fault_schedule=faults.drop_window(3, 1.0, 8.0)
    ),
    "partition-heal": replace(
        golden_spec("eesmr"), fault_schedule=faults.partition(4, 2.0, 10.0)
    ),
}

#: section -> case -> the SHA-256 of that section of the case's trace, held
#: column by column so that a re-pin's diff is one block per section it moves.
COLUMNS = {
    "spec": {
        "golden/eesmr": "ae2e0a8afd0772fdf739dadbcc070c60b6c20a50d35c94d036f981eed42a1494",
        "golden/sync-hotstuff": "ab98be84d0f7c4db63dc4e136956bee1a4515b71ab2f97661f0a370d142a51d0",
        "golden/optsync": "20fbc24a28f0d64644e349eb730f650e8c9db37de7ce2966c81647f1862ea05b",
        "golden/trusted-baseline": "4ff316030f20a6e902e377b383dde50262eb18825428cea5a5cf4b21ad63c0d3",
        "golden/wifi-n9": "87033b464ec2346ff975711333bb5e3a5214018e8dc3e4cfb3134afe5ccd8126",
        "lossy/eesmr": "9bf2c89fd14e080968eae7eb5ff9288f4cb837db0a52cb87336e8e92bf2febb5",
        "lossy/sync-hotstuff": "427a0c2a8b1ec4ee0d4ff457c0ca02ceff5a82a8045f8a03cce4fba17e86fc72",
        "lossy/optsync": "966ee7a8a374a5043b9a5b468008ce6688c66ea745c3426beda83b776864b0f4",
        "lossy/trusted-baseline": "4efc2423b9a40e67acc28f3a3a8d393cf4ab1c42fe31cabd15731660a85026f3",
        "giveup/eesmr": "6adcdfc039fcd2c90fa421be52257450666d2bd6bfbe4c819b3d6fea45e9c571",
        "giveup/sync-hotstuff": "0fc4e4bf5bbf2ac1d15b1f14a484421c8242a9d81ff1cf46e143f6151ac53029",
        "giveup/optsync": "5e94c7c3b7f7adc07f0f06996dc6d2bfb0f1dbadfcd327712bd265d905693ea1",
        "giveup/trusted-baseline": "d9400eac5bfa715435aed277291498a37994dfa3fe599aad74b9d71ee9f2b4b2",
        "silent_leader/eesmr": "597cd049f5afd3733597285c3992e66e634ae2e134684d9bb8733dc2d2fb63b1",
        "equivocate/eesmr": "c4a3ab33eb7bf548a85811eb353e475ac47e4e7850d78671e918a7838f567732",
        "crash/eesmr": "1f5896f98918a15553bf40317b8f8b804bd4538329c83ffe2c2b3bbf286ad858",
        "silent_leader/sync-hotstuff": "1fc69a12a7801c62772bc94d8c7597006f764bdaeb4348112e22bc09d3c45812",
        "equivocate/sync-hotstuff": "0056fa58cde92b550a32cc85edba88d15a4313a653dbc364a81d426fd18befcb",
        "crash/sync-hotstuff": "12102c61560da05a3512d58e1e551bde5a7fb9922078c70d285548e1f7a3b47d",
        "silent_leader/optsync": "9ab139a9ae467d8e6ec932514ec52b8d3c2cfba0d21a7429a7e25476620c87a3",
        "equivocate/optsync": "b869827e5279ab753938042f81ddd2030dea64cb9b5c0dde985ed2ff23859cd8",
        "crash/optsync": "767159b2ee1cc7eaaa81db6671de31360788811f828cf8f7c1e9b4ce3216df82",
        "stacked/eesmr": "be21038542cc29854d969852dae581ce5b57442f275e612975ce67a3a0a671c2",
        "stacked/sync-hotstuff": "91c72d5682214538680fe6f00aef242a659296e1d43fbb0616da242746fc7c81",
        "stacked/optsync": "9fc745eab9808c495a53891b872aa229d819fdf5d13afe55e590ecd1e0a1dd0f",
        "stacked/trusted-baseline": "25afa96f41f6bc74ad05d7db0b263d9d13808196672d44e80291c479bfc809aa",
        "stacked-lossy/eesmr": "212cda5ccd4b6e26ef29a90c2e02f78e99d6725a0c81f165faf25a5f96adb90e",
        "stacked-lossy/sync-hotstuff": "9cb30a1cb687e3f99ae02174b0c4b4e350924bbc7ab56de20831dedaf4acd731",
        "stacked-lossy/optsync": "47b5e88ebe4a6e4885fb4365b8579a9248aef1f247bf50505483241c7e91a790",
        "stacked-lossy/trusted-baseline": "456a2499e8af5aaf3de4dad962d29120bbd97b16df4c457df9eb92d3d2722d89",
        "relay-drop-window": "743c1b7676708fc9d6b7727fb2cebb7ae97e838ef5ebca5aa19d1155fe1278dc",
        "partition-heal": "b476543e7d7c4e3e35d38fdc7d4704d6369fe8608de7260986cb6c736c4f485b",
    },
    "events": {
        "golden/eesmr": "f7a6e1418ad5ccb378575bc14d384590788d0b4dc84e3b41c30f146dc2fc4e22",
        "golden/sync-hotstuff": "f34a2a95c493e7ea311a35fa3885f97b5546262c362bd0010f73d32506baeaa2",
        "golden/optsync": "c020116598ed697dc9ebfca3d397d782ea9f8441667f8eec448c2cb356635f48",
        "golden/trusted-baseline": "3479a2c673dc9041b7ee19e813e612bee31efe976f7fe4c99c78996b6d7e83a2",
        "golden/wifi-n9": "ae1c9a74b433c34c03918c3710c5da479e0ef95f6fc60ca04f00f2947b0130c8",
        "lossy/eesmr": "731ff96347e22b064d94d3bc4b9832932de11922d3e148831902f7381cecf0cf",
        "lossy/sync-hotstuff": "bccdaa550d1a62a4a71eb5fc4e6749b2f6ab96e7408ac2f37776029bec20e023",
        "lossy/optsync": "02bea45c0830e1a8b10af0f47afcc9ae9c4b8c77f81e0a3d4d83e0aea9a43deb",
        "lossy/trusted-baseline": "7e9714fb3730dc0489ffdff4fa47339cbf4846d64660c2ddfe6aeb806df1990c",
        "giveup/eesmr": "191886854117a2647c7c158d48f59814864a60b7d8e85bcf8ee77ef9c5610055",
        "giveup/sync-hotstuff": "1b8f2919faa40ead6263bc6921836cd3311fec2be9dc6a38c56016cca6adbf36",
        "giveup/optsync": "f5be4046c8b06c5566ee561e17abe1e7063ace199ccaa5e46ce2d4355a449bf0",
        "giveup/trusted-baseline": "c7d1486b5da1c2f0e2015c6a943614c675c9e53ca6cb99ea08119c666d334224",
        "silent_leader/eesmr": "0240c2c26984bc2265308349f92c023169746c654e3312812e503700c96a1400",
        "equivocate/eesmr": "519f3522493c3427c64cf2cf0943de54d7064ef6fdd1e66c1f930eb4f84940ce",
        "crash/eesmr": "d2dbbcab1c1bbfa3df203d01505c48b95f5b2eb655db1492e6b6d70d684a59c7",
        "silent_leader/sync-hotstuff": "5d53f3cf27bd9700ade1943791c46bc66d064b91891959f4f3e9fc2df49c8a3a",
        "equivocate/sync-hotstuff": "5d53f3cf27bd9700ade1943791c46bc66d064b91891959f4f3e9fc2df49c8a3a",
        "crash/sync-hotstuff": "5d53f3cf27bd9700ade1943791c46bc66d064b91891959f4f3e9fc2df49c8a3a",
        "silent_leader/optsync": "acb2857319555f50f3ec2caed8e7ee062193b053431fefb5012c920424f67bc1",
        "equivocate/optsync": "acb2857319555f50f3ec2caed8e7ee062193b053431fefb5012c920424f67bc1",
        "crash/optsync": "acb2857319555f50f3ec2caed8e7ee062193b053431fefb5012c920424f67bc1",
        "stacked/eesmr": "4406633c1fa8653d024ea174d2c89cc5c188f6b6667e126dd4cd1ad8807aadf6",
        "stacked/sync-hotstuff": "c8d566d39c7c13b55fbc7e75d91233d918ca83192cf161626210c58c4d16c527",
        "stacked/optsync": "993383bd04a23bd69ee83f37ee531ab9550ce9bc4eda311fc9685a53f3ad0003",
        "stacked/trusted-baseline": "747f5618c2ed925c33186af9dcb19fa8bccd81fcb7b3a4eb819c33d266d53dee",
        "stacked-lossy/eesmr": "c9fd20a9f92ccc1a03a0e4bede922e4150d2010df61f747deeb0e5596f61bde0",
        "stacked-lossy/sync-hotstuff": "bc44ef40563b7166022456710474610e242e0c4690c6cfa833ccb4c66f487d0b",
        "stacked-lossy/optsync": "0816f9a638dcf4deb1ac06606a2a4e7b5a0c8ee45bb96cda7824669f52985ee8",
        "stacked-lossy/trusted-baseline": "a5c5cf66b03e83dc19075cfa43b75ef8b242ede7f15047f94ecc54f360e772cc",
        "relay-drop-window": "b389ad67ba32beab4f8584720a9ea1b325d0b24447368f683132dcbc8f199d03",
        "partition-heal": "3192af444c6296c357b757e917558af59d91c16999feab6042b41c1390812d96",
    },
    "energy": {
        "golden/eesmr": "690762702fd28104df6f1f50ccc9aa66ee80b361b6267cb2364a67496a59358a",
        "golden/sync-hotstuff": "eccf53dc1b1288f5494e822437cd06512dc849dbce1049c54322e3955297a901",
        "golden/optsync": "2be5232632265276b7a6fde84275b364bc2ee6fcdf6c9b587c74b58a1a9ed520",
        "golden/trusted-baseline": "1a511ac6ba7d01592da809f4cf59ceec8841dc5739f1caf2d957a8cc97dde034",
        "golden/wifi-n9": "6a7096c2b5bbfe590cc57c556cb20eab1d0140e75cb02d22a2e08482d2cf7ab9",
        "lossy/eesmr": "07c821088b84de6e64f5ab881b261c944b8cdf43a178bf3dedd3ea10996055a0",
        "lossy/sync-hotstuff": "d72e34bf55fb1a791abe227e249624652d0b6a2bbe0b35656ce028040919a439",
        "lossy/optsync": "45fba5d7e6374d17dffbddc5fecb365591996e1ca6694e640ed904422b707873",
        "lossy/trusted-baseline": "425170c56eb0833a743b1399b088d60a4ab01778e919eab4b3be6c03eba50f5f",
        "giveup/eesmr": "0154b2ae49b9c17b5fca36b475cbac4f1d32c77ccdc02f034ef0989904da5a9d",
        "giveup/sync-hotstuff": "f2ddd1cc036c0ef7584ab09aaf487e7f1e77209bff0ae145e2b46f3dd63b048b",
        "giveup/optsync": "7bb67f6b3514d3f4abdccc15f2a2d839c2ade973fe2e18ad69b6950263716d10",
        "giveup/trusted-baseline": "ac2f966dc73efac13be3949d2e5a90f616d905cd0c86c60a200c80ee7d5ee059",
        "silent_leader/eesmr": "587e8ceff3964c91415ca778d28053d9be1312a29d58ca48940cca4fd7981238",
        "equivocate/eesmr": "92136009b8794d54c8bdb5aa56e794b72fc3aabdc01c65890e6a783bf85ac2e6",
        "crash/eesmr": "76ea88d0bfd2c012d9274b3e84aa9ffb22daae875a4f77e1a91651c450ae6e38",
        "silent_leader/sync-hotstuff": "605c7c384d4582efdf041d1a25281d0f7a584a2c4db2c56ab30543d28c4e070a",
        "equivocate/sync-hotstuff": "605c7c384d4582efdf041d1a25281d0f7a584a2c4db2c56ab30543d28c4e070a",
        "crash/sync-hotstuff": "605c7c384d4582efdf041d1a25281d0f7a584a2c4db2c56ab30543d28c4e070a",
        "silent_leader/optsync": "a66cfdc98ced510fe61df39acbdf467c52a480f47c13b03f8d9ee787a7568c6c",
        "equivocate/optsync": "a66cfdc98ced510fe61df39acbdf467c52a480f47c13b03f8d9ee787a7568c6c",
        "crash/optsync": "a66cfdc98ced510fe61df39acbdf467c52a480f47c13b03f8d9ee787a7568c6c",
        "stacked/eesmr": "cf68d24c3d9b99f2af37406576b556eb736cab8c604bc85e0c8e818394049ff6",
        "stacked/sync-hotstuff": "bcb68e2f707d9298dbbbe43b0a29e4ef98e7e1d2e9e88175cfdb96ae2c593fe8",
        "stacked/optsync": "fff9e37aa62641c49249fbef012013d4aa3902375b185cd73c59f9f4ffda5252",
        "stacked/trusted-baseline": "9ef81c5af3b558ceadbe713a15324952471d54b97ce1426d7986e9e099a7cb8a",
        "stacked-lossy/eesmr": "6ef2439237ca9b60073588a9acecb7e3486f900b3193724408e21399a1375bbd",
        "stacked-lossy/sync-hotstuff": "bf56282c58633e188adfa762eb7ebe682291f3bad02ab736e0efec8bdf94e390",
        "stacked-lossy/optsync": "95458f45a2dc74ee2c5c7639b95b61f298c6f2ffb7c7a722abcd8f557c147a3e",
        "stacked-lossy/trusted-baseline": "1f9f3132616c321ca9fd19da026d629fa83c08d895170ebb7d63abcc64f59ccc",
        "relay-drop-window": "3712ffcd944c8cba8738304ed70fb34658267a5ead31a3b6cffac3a40d255bef",
        "partition-heal": "5ea563814d3cc7c1b3af12b92b8b8dd4d5aad88e6512dcc145b041008ec1965e",
    },
    "outcome": {
        "golden/eesmr": "811d53d225b4de9ce3a65f5acf1ac5b00a50397d7c7ecd4114aaabf21c7ddb62",
        "golden/sync-hotstuff": "cde5422204e4d0d8a14ca63a811bd37aba18dc21b20695cdd820b72810983351",
        "golden/optsync": "cde5422204e4d0d8a14ca63a811bd37aba18dc21b20695cdd820b72810983351",
        "golden/trusted-baseline": "154e1b93b6b844e95043229d924ce1fc128ffa5a27c5453bb2f0a8041a2efde8",
        "golden/wifi-n9": "623ad4b5cfbd6c70f38be62e05ccefbb51b186f010ded3900be57f3df056a701",
        "lossy/eesmr": "9cd76f7f13af0ab6d08b1917582625bace4b5496a5a9c516f645a2be708990c7",
        "lossy/sync-hotstuff": "0ce2b29f58449d7bff9d6f2dda573270ca06314ac4e047a4b61bb799df5b8db2",
        "lossy/optsync": "0ce2b29f58449d7bff9d6f2dda573270ca06314ac4e047a4b61bb799df5b8db2",
        "lossy/trusted-baseline": "5748157f623cd0165c2fcf3acfa63771ca6e97b2bddf0957ddcabadef1cc63d2",
        "giveup/eesmr": "e1c535b4c1d3cc355168f4318eec7779d45ced25380ecf36f2378e0339b5a182",
        "giveup/sync-hotstuff": "c88c365e23c893bc6d0311d162e34f8c985b7254907d7e32e6d78c5e25bcf1b3",
        "giveup/optsync": "c88c365e23c893bc6d0311d162e34f8c985b7254907d7e32e6d78c5e25bcf1b3",
        "giveup/trusted-baseline": "2badb54e9b61d9c09cfd267421a46c1de86436190437a387b5f380f9b1376dae",
        "silent_leader/eesmr": "8c07c5ffccb35ee6dc5c8c95d9fc5a20418020902282a0354cc74cd99ebd180a",
        "equivocate/eesmr": "b5993ad19083cc1e75c88b7608a0e15b91849332640ea35322b36f680f4136f0",
        "crash/eesmr": "f6616f226dda64a9022c58b3d929134547d9cb1ae6e9fda7683f6c6852a0bf47",
        "silent_leader/sync-hotstuff": "5ab0efd61e8b2d58440816f7058700d6dbf74b10835af3e29728e8148e8f3550",
        "equivocate/sync-hotstuff": "5ab0efd61e8b2d58440816f7058700d6dbf74b10835af3e29728e8148e8f3550",
        "crash/sync-hotstuff": "5ab0efd61e8b2d58440816f7058700d6dbf74b10835af3e29728e8148e8f3550",
        "silent_leader/optsync": "5ab0efd61e8b2d58440816f7058700d6dbf74b10835af3e29728e8148e8f3550",
        "equivocate/optsync": "5ab0efd61e8b2d58440816f7058700d6dbf74b10835af3e29728e8148e8f3550",
        "crash/optsync": "5ab0efd61e8b2d58440816f7058700d6dbf74b10835af3e29728e8148e8f3550",
        "stacked/eesmr": "9afbc1d116d9d9d972aad30adb30142194329aa0bd946c974b06adaadf0c37f6",
        "stacked/sync-hotstuff": "af03899b0db6d08aa2d8e09e4415fae550e429bfba24f798a7e7beff1985968f",
        "stacked/optsync": "a86ee4120f8c14746ab5947444322c8c4f15a43937424a7688473b56b9cb4dba",
        "stacked/trusted-baseline": "af313e903732bb8fd9c09771fea27e4e61adcadbb782c48071e41b97bb82efe3",
        "stacked-lossy/eesmr": "32076f4b6f35a793f8718e6f01addd90078a9b0ac48c8a0212b4ba7176202ec0",
        "stacked-lossy/sync-hotstuff": "19c9195b242ebd064733a3268a6564342fd603447df57714eb5b2bcef64c25ae",
        "stacked-lossy/optsync": "f0808c69cac0c08b3a2fff8f936e4324986d7dbec7a8bc39d1421fd5325fb0c6",
        "stacked-lossy/trusted-baseline": "f3542aa16de1fb62ac5731b2dfc19f0744c1e198abd220ac34d49dbd1911d94c",
        "relay-drop-window": "ff0ebe1ff15a827243d3266af95e82acaac3157e8ab0b69bc8208d861443cec7",
        "partition-heal": "bb5b422587f13fe25653791b358f3ac8b031e3e478706f47ff03609c785db888",
    },
}

#: case -> section -> SHA-256: one row per pinned run.
PINS = {case: {name: column[case] for name, column in COLUMNS.items()} for case in SPECS}


def digest(value) -> str:
    return sha256(json.dumps(value, sort_keys=True, separators=(",", ":")).encode()).hexdigest()


def sections(trace: RunTrace) -> dict:
    """section -> the SHA-256 of its keys of ``trace.to_dict()``."""
    view = trace.to_dict()
    out = {name: digest({key: view.pop(key) for key in keys}) for name, keys in SECTIONS.items()}
    out["outcome"] = digest(view)
    return out


def record(spec: DeploymentSpec) -> RunTrace:
    return run_protocol(spec, recorder=TraceRecorder()).trace


@cache
def pinned_run_sections(case: str) -> dict:
    """The sections of ``case``'s trace, run once for all of its tests."""
    return sections(record(SPECS[case]))


@pytest.mark.parametrize(("case", "section"), [(case, name) for case in SPECS for name in COLUMNS])
def test_section_of_a_pinned_run_is_unchanged(case, section):
    seen = pinned_run_sections(case)
    moved = [name for name in COLUMNS if seen[name] != PINS[case][name]]
    assert seen[section] == PINS[case][section], f"{case}: moved sections {moved}"


def test_stacked_window_schedule_reports_only_effective_transitions():
    class Transitions(SessionObserver):
        def __init__(self):
            self.seen = []

        def on_fault_window(self, node, kind, active, time):
            self.seen.append((time, node, kind, active))

    observer = Transitions()
    run_protocol(stacked_spec("eesmr"), observers=(observer,))
    assert observer.seen == STACKED_TRANSITIONS
