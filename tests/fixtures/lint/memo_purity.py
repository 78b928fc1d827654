"""Planted memo-purity violations (linter fixture; never imported)."""

_digest_memo = {}


def impure_lookup(sim, rng, key):
    if key in _digest_memo:
        return _digest_memo[key]
    stamp = sim.now  # PLANT: memo-purity
    noise = rng.random()  # PLANT: memo-purity
    _digest_memo[key] = (stamp, noise)
    return _digest_memo[key]


def pure_lookup(key, payload):
    cached = _digest_memo.get(key)
    if cached is None:
        cached = hash(payload)
        _digest_memo[key] = cached
    return cached
