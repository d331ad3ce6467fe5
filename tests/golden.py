"""Pinned SHA-256 digests of CLI stdout, and the generator fault that the
fault digests pin, shared by the test modules."""

from lietower.exact import ExactMatrix, I
from lietower.sopq import build_generators

# SHA-256 of stdout for every CLI_MATRIX entry plus verify 4,4 and 5,5, the
# other roots outputs, every tower output, the element queries with a mass
# node and the three-label mass, so any change to a single output byte is
# caught, not only a difference between reruns.
GOLDEN_STDOUT_SHA256 = {
    ("verify", "--signature", "4,2"):
        "e01d56dcf146ed2bc92fa73df863bb2ca685462de82ae505b370fd5efbc9cac9",
    ("verify", "--signature", "4,2", "--format", "json"):
        "d80bc3dec90a65dbfc6bee1f5ac7646365b1b3ce2aadb285f8b2b8050292d929",
    ("roots", "--signature", "4,2", "--format", "json"):
        "5d7c94f06d59139a429285b73a164c85a47263d7c8bf99b74f79a1e55930687b",
    ("roots", "--signature", "4,2", "--format", "svg"):
        "b75eeea99b94e344250a47079f49b56bbab4c94bd1546bee08993a40aa5b591a",
    ("roots", "--signature", "4,4", "--format", "json"):
        "7bfd2b6d9bc49863379f23ed20a4bae861b8488041f199156955b6092c4f6718",
    ("tower", "--spin=-1/2", "--format", "json"):
        "5f788ed70eba096ec17cb98b7f0757647db15622ea660b968ab7250a174c93a5",
    ("tower", "--spin=+1/2", "--format", "svg"):
        "4125a0bb36f6443b950a4589b20f6882aa1ee49b4a45f8990436707c14f8e0dd",
    ("elements", "--z", "118"):
        "c2f7dfafd7f6640acb371ea139e3668308b82e8f2f02d1c8da59df16dd0371db",
    ("mass", "1/2", "0"):
        "1729d107efd6dcf6c93226365c9475fd6119cc0e46718ff022e5b10e7cae5388",
    ("verify", "--signature", "4,4"):
        "ada9be85a485edb22f91f8a9eefdf4489778e75a6ac37c88c19fc85024f7268b",
    ("verify", "--signature", "4,4", "--format", "json"):
        "56193eba0efe7bd986f294af7b4c8044efd61b440ddfd4d92ad7883d7487254c",
    ("roots", "--signature", "4,2"):
        "fdd61d557b92feca9c74307d058a7a7919f7d3264c1b665030199cd0e1f0f839",
    ("roots", "--signature", "4,4"):
        "0a4091bbd10cf2e7264e68d2a244439ea61addd455ecce1216fd79f53133f07e",
    ("roots", "--signature", "4,4", "--format", "svg"):
        "f1225dcbd5ec3d10f743347d532a0ab9d83addf47daaf0a71a10cb35afcf19b5",
    ("verify", "--signature", "5,5"):
        "f4687e2046e365e5c3e764bfc11a080fbc756fd5df38476593a3ac67e96633cb",
    ("tower", "--spin=-1/2", "--format", "svg"):
        "fd5775a6485809f320a1b594099b371f3d175f8b126eb6ff9387706b6a601df2",
    ("tower", "--spin=-1/2"):
        "7398cfa494c9953e6c0f49cae6f571e456ee1e785f193f45b60018f12110f218",
    ("tower", "--spin=+1/2"):
        "4c7dea6d903662dc5752281efceedab8a37ea44439b294a1232625654db5f8c1",
    ("tower", "--spin=+1/2", "--format", "json"):
        "1f8bec78715643c6cf5d8145ef72cad8df86ab7fdfc6a12f1e30b7ca9c0bccdd",
    ("elements", "--symbol", "Fe", "--format", "json", "--node", "1/2,0,1"):
        "20ba639c0baec768248293840581e1afda0c52ee90564d2fafe2dd93547fd2ae",
    ("elements", "--z", "26", "--node", "1/2,0,1"):
        "773550172c945acd672ff98f7c7ba02ecb7898997d80c4b7f422080e3e26be5f",
    ("mass", "3/2", "1/2", "1"):
        "0ce5de22fa984f1a2338a527c87fd522564eab23ad1e08aabc3abf829480e37b",
}

def tampered_build(metric):
    """``build_generators`` with L12 replaced by a symmetric matrix (one entry
    of wrong sign), the fault injected for ``FAULT_STDOUT_SHA256``."""
    gs = build_generators(metric)
    gs._gens[(1, 2)] = ExactMatrix.from_entries(metric.dim, {(0, 1): I, (1, 0): I})
    return gs


# SHA-256 of stdout for verify with the criterion-13 fault injected (exit 1):
# the failure report, every rendered commutator expansion included, is pinned;
# 5,5 pins the generic path and its Cartan search over the corrupted graph.
FAULT_STDOUT_SHA256 = {
    ("verify", "--signature", "4,2"):
        "c56453a40016f7f293078d15669ea55bb7c39ba4ec6d5ca7e049457f7dd739e0",
    ("verify", "--signature", "4,2", "--format", "json"):
        "26c358e789e5b8f878909e9d6eca7665dc3db95eb44bb763a5b653a4a7cb6210",
    ("verify", "--signature", "4,4"):
        "8518ceae74d8d3910e6c96e5090d943f5013c30d536fe0fbc2aa0dad76bba99b",
    ("verify", "--signature", "4,4", "--format", "json"):
        "5089cf0750ad760dd17682f6a256fce373c208601b9337a1829a72802f9b5414",
    ("verify", "--signature", "5,5"):
        "867245c3b4e1bc4c491e8d10fe7f89ee0ebfeafd9aac650c1f2d2687fad150e4",
    ("verify", "--signature", "5,5", "--format", "json"):
        "18e1b40345e1951bfe090c5e20e4d1e7a1da0f9fadcff8d6040cb264c18a3573",
}
