//! Bearer keys at rest: [`StoredKey`], a salt plus the salted SHA-256 of a
//! key in the `"<salt-hex>:<digest-hex>"` form `rpg hash-key` prints and
//! manifests list, over a dependency-free SHA-256 and the hex and
//! constant-time helpers it needs.
//!
//! The workspace builds with no external crates, so the digest is the
//! textbook FIPS 180-4 compression loop over `std` alone — more than fast
//! enough for its one job here: authenticating a bearer key costs one
//! digest per stored key, on requests that go on to run a whole retrieval
//! pipeline. Comparisons against stored digests go through [`ct_eq`] so a
//! mismatched key costs the same regardless of where it differs.

/// FIPS 180-4 round constants: the fractional parts of the cube roots of
/// the first 64 primes.
const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

/// The SHA-256 digest of `data`.
pub fn sha256(data: &[u8]) -> [u8; 32] {
    let mut h: [u32; 8] = [
        0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab,
        0x5be0cd19,
    ];
    // Padded message: data ‖ 0x80 ‖ zeros ‖ bit-length, to a 64-byte
    // multiple.
    let bit_len = (data.len() as u64).wrapping_mul(8);
    let mut message = data.to_vec();
    message.push(0x80);
    while message.len() % 64 != 56 {
        message.push(0);
    }
    message.extend_from_slice(&bit_len.to_be_bytes());
    let mut w = [0u32; 64];
    for block in message.chunks_exact(64) {
        for (t, chunk) in block.chunks_exact(4).enumerate() {
            w[t] = u32::from_be_bytes(chunk.try_into().expect("4-byte chunk"));
        }
        for t in 16..64 {
            let s0 = w[t - 15].rotate_right(7) ^ w[t - 15].rotate_right(18) ^ (w[t - 15] >> 3);
            let s1 = w[t - 2].rotate_right(17) ^ w[t - 2].rotate_right(19) ^ (w[t - 2] >> 10);
            w[t] = w[t - 16]
                .wrapping_add(s0)
                .wrapping_add(w[t - 7])
                .wrapping_add(s1);
        }
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut hh] = h;
        for t in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ (!e & g);
            let temp1 = hh
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(K[t])
                .wrapping_add(w[t]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let temp2 = s0.wrapping_add(maj);
            hh = g;
            g = f;
            f = e;
            e = d.wrapping_add(temp1);
            d = c;
            c = b;
            b = a;
            a = temp1.wrapping_add(temp2);
        }
        for (slot, add) in h.iter_mut().zip([a, b, c, d, e, f, g, hh]) {
            *slot = slot.wrapping_add(add);
        }
    }
    let mut digest = [0u8; 32];
    for (chunk, word) in digest.chunks_exact_mut(4).zip(h) {
        chunk.copy_from_slice(&word.to_be_bytes());
    }
    digest
}

/// Lower-hex rendering of `bytes`.
pub fn hex_encode(bytes: &[u8]) -> String {
    let mut out = String::with_capacity(bytes.len() * 2);
    for byte in bytes {
        out.push(char::from_digit((byte >> 4) as u32, 16).expect("nibble"));
        out.push(char::from_digit((byte & 0xf) as u32, 16).expect("nibble"));
    }
    out
}

/// Parses hex text (either case) back to bytes; `None` on odd length or a
/// non-hex character.
pub fn hex_decode(text: &str) -> Option<Vec<u8>> {
    if !text.len().is_multiple_of(2) {
        return None;
    }
    text.as_bytes()
        .chunks_exact(2)
        .map(|pair| {
            let hi = (pair[0] as char).to_digit(16)?;
            let lo = (pair[1] as char).to_digit(16)?;
            Some(((hi << 4) | lo) as u8)
        })
        .collect()
}

/// Constant-time equality: the comparison touches every byte regardless of
/// where the first difference sits, so timing does not leak how much of a
/// guessed key was right. (A length mismatch returns early — lengths of
/// stored digests are public.)
pub fn ct_eq(a: &[u8], b: &[u8]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let mut diff = 0u8;
    for (x, y) in a.iter().zip(b) {
        diff |= x ^ y;
    }
    diff == 0
}

/// One key at rest: a salt and the SHA-256 of `salt ‖ key`. The wire/file
/// form is `"<salt-hex>:<digest-hex>"`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct StoredKey {
    salt: Vec<u8>,
    digest: [u8; 32],
}

impl StoredKey {
    /// Hashes a plaintext key under an explicit salt.
    pub fn with_salt(key: &str, salt: &[u8]) -> StoredKey {
        let mut message = salt.to_vec();
        message.extend_from_slice(key.as_bytes());
        StoredKey {
            salt: salt.to_vec(),
            digest: sha256(&message),
        }
    }

    /// Parses the stored form `"<salt-hex>:<digest-hex>"` (hex in either
    /// case, so two spellings of one key parse equal): the one parser every
    /// manifest, reload and `PUT` body's key hashes go through.
    pub fn parse(text: &str) -> Option<StoredKey> {
        let (salt_hex, digest_hex) = text.split_once(':')?;
        let salt = hex_decode(salt_hex)?;
        let digest: [u8; 32] = hex_decode(digest_hex)?.try_into().ok()?;
        if salt.is_empty() {
            return None;
        }
        Some(StoredKey { salt, digest })
    }

    /// The canonical stored form.
    pub fn encode(&self) -> String {
        format!("{}:{}", hex_encode(&self.salt), hex_encode(&self.digest))
    }

    /// Whether a presented plaintext key is this one (constant-time on the
    /// digest).
    pub fn matches(&self, candidate: &str) -> bool {
        let probe = StoredKey::with_salt(candidate, &self.salt);
        ct_eq(&probe.digest, &self.digest)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sha256_matches_fips_vectors() {
        assert_eq!(
            hex_encode(&sha256(b"")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
        assert_eq!(
            hex_encode(&sha256(b"abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
        assert_eq!(
            hex_encode(&sha256(
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
            )),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn multi_block_messages_digest_correctly() {
        // One million 'a's — the classic long-message vector, exercising
        // many compression blocks and the padding boundary.
        let million = vec![b'a'; 1_000_000];
        assert_eq!(
            hex_encode(&sha256(&million)),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
        // Lengths that straddle the 56-byte padding cutoff.
        for len in 54..=66 {
            let data = vec![0x5a; len];
            assert_eq!(sha256(&data).len(), 32);
        }
    }

    #[test]
    fn hex_round_trips_and_rejects_garbage() {
        let bytes: Vec<u8> = (0u8..=255).collect();
        let text = hex_encode(&bytes);
        assert_eq!(hex_decode(&text).as_deref(), Some(&bytes[..]));
        assert_eq!(
            hex_decode(&text.to_uppercase()).as_deref(),
            Some(&bytes[..])
        );
        assert_eq!(hex_decode("abc"), None, "odd length");
        assert_eq!(hex_decode("zz"), None, "non-hex digit");
        assert_eq!(hex_decode("").as_deref(), Some(&[][..]));
    }

    #[test]
    fn ct_eq_compares_exactly() {
        assert!(ct_eq(b"same", b"same"));
        assert!(!ct_eq(b"same", b"sameish"));
        assert!(!ct_eq(b"aaaa", b"aaab"));
        assert!(!ct_eq(b"baaa", b"aaaa"));
        assert!(ct_eq(b"", b""));
    }
}
