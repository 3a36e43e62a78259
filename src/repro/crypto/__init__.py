"""From-scratch cryptographic implementations — the attack *targets*.

Every physical and cache attack in the paper needs a real cipher producing
real key-dependent intermediates.  This package provides them, each in the
variants the countermeasure discussion (Section 5) requires:

* :class:`TTableAES` — table-based AES-128 whose lookups are observable
  (cache side channels) and whose intermediates leak (power analysis).
* :class:`ConstantTimeAES` — touches every table entry per lookup, the
  software countermeasure of refs [3, 34].
* :class:`MaskedAES` — first-order boolean masking (Section 5's "masking").
* :class:`RSA` — square-and-multiply (timing-leaky, Kocher [23]),
  Montgomery-ladder (constant-time), and CRT signing with/without result
  verification (the Bellcore fault-attack countermeasure [5]).
* :func:`sha256` / :func:`hmac_sha256` — the attestation MAC substrate.
"""

from repro._lazy import lazy_exports

#: Public name -> the submodule that defines it.
_EXPORTS = {
    "AES128": "aes",
    "ConstantTimeAES": "aes",
    "MaskedAES": "aes",
    "ModExpResult": "modexp",
    "RSA": "rsa",
    "RSAKey": "rsa",
    "TTableAES": "aes",
    "XorShiftRNG": "rng",
    "generate_rsa_key": "rsa",
    "hmac_sha256": "hmacmod",
    "hmac_verify": "hmacmod",
    "modexp_ladder": "modexp",
    "modexp_square_multiply": "modexp",
    "sha256": "sha256",
}

__all__, __getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
