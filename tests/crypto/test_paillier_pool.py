"""Obfuscator precomputation for Paillier encryption."""

import time

import pytest

from repro.crypto import paillier
from repro.crypto.primitives.random import DeterministicRandom
from repro.errors import CryptoError

PAILLIER_BITS = 256


@pytest.fixture(scope="module")
def key():
    return paillier.generate_keypair(
        PAILLIER_BITS, DeterministicRandom(b"paillier-pool").randbelow
    )


class TestObfuscator:
    def test_mask_is_in_group(self, key):
        mask = paillier.obfuscator(key.public)
        assert 0 < mask < key.public.n_squared

    def test_encrypt_with_mask_matches_encrypt(self, key):
        # encrypt() is defined as encrypt_with_mask over a fresh mask;
        # a precomputed mask must decrypt identically.
        mask = paillier.obfuscator(key.public)
        ciphertext = paillier.encrypt_with_mask(key.public, 1234, mask)
        assert paillier.decrypt(key, ciphertext) == 1234

    def test_masked_encryption_stays_homomorphic(self, key):
        ea = paillier.encrypt_with_mask(
            key.public, 30, paillier.obfuscator(key.public)
        )
        eb = paillier.encrypt_with_mask(
            key.public, 12, paillier.obfuscator(key.public)
        )
        assert paillier.decrypt(key, ea + eb) == 42


class TestCrtMask:
    """With the factors known, masks are CRT powers — bit-identical."""

    def test_crt_mask_equals_full_power(self, key):
        public = key.public
        for seed in range(64):
            full = paillier.obfuscator(
                public, DeterministicRandom(b"r%d" % seed).randbelow
            )
            crt = paillier.obfuscator(
                public, DeterministicRandom(b"r%d" % seed).randbelow,
                factors=key.factors,
            )
            assert crt == full

    def test_crt_mask_at_deployment_size(self):
        key = paillier.generate_keypair(
            1024, DeterministicRandom(b"crt-1024").randbelow
        )
        for seed in range(4):
            r = DeterministicRandom(b"s%d" % seed).randbelow(key.public.n)
            crt = paillier.obfuscator(key.public, lambda _bound, r=r: r - 1,
                                      factors=key.factors)
            assert crt == pow(r, key.public.n, key.public.n_squared)

    def test_pool_refills_with_crt_masks(self, key):
        pool = paillier.ObfuscatorPool(key.public, size=2,
                                       factors=key.factors)
        try:
            ciphertext = pool.encrypt(-77)
            assert paillier.decrypt(key, ciphertext) == -77
        finally:
            pool.close()

    def test_keys_without_factors_use_the_full_power(self, key):
        bare = paillier.PaillierPrivateKey(key.public, key.lam, key.mu)
        assert bare.factors is None
        assert key.factors == (key.p, key.q)


class TestObfuscatorPool:
    def test_rejects_non_positive_size(self, key):
        with pytest.raises(CryptoError):
            paillier.ObfuscatorPool(key.public, size=0)

    def test_roundtrip_signed(self, key):
        pool = paillier.ObfuscatorPool(key.public, size=2)
        try:
            for message in (0, 42, -17, 123456):
                assert paillier.decrypt(key, pool.encrypt(message)) == (
                    message
                )
        finally:
            pool.close()

    def test_encryption_is_probabilistic(self, key):
        pool = paillier.ObfuscatorPool(key.public, size=4)
        try:
            values = {pool.encrypt(5).value for _ in range(6)}
            assert len(values) == 6
        finally:
            pool.close()

    def test_background_refill(self, key):
        pool = paillier.ObfuscatorPool(key.public, size=4)
        try:
            pool.mask()  # first consumption starts the refill thread
            deadline = time.monotonic() + 5.0
            while pool.available() < 4 and time.monotonic() < deadline:
                time.sleep(0.01)
            assert pool.available() == 4
        finally:
            pool.close()

    def test_empty_pool_computes_inline(self, key):
        pool = paillier.ObfuscatorPool(key.public, size=1)
        pool.close()  # refill never runs: every mask is inline
        assert paillier.decrypt(key, pool.encrypt(7)) == 7

    def test_close_is_idempotent(self, key):
        pool = paillier.ObfuscatorPool(key.public, size=1)
        pool.close()
        pool.close()
