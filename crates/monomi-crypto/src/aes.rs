//! AES-128 block cipher implemented from scratch (FIPS-197), with two round
//! implementations behind one type.
//!
//! MONOMI uses AES as the primitive behind its randomized (CBC), deterministic
//! (CMC/FFX-style), and order-preserving (PRF) constructions, so one block is
//! the unit every client-side decrypt pays for: a DET integer is ten blocks.
//!
//! [`Aes128::new`] checks once whether the CPU has AES-NI (x86_64 only) and
//! expands the key for the rounds it will run:
//!
//! * **AES-NI** (module `ni`, the workspace's only `unsafe`): each round is
//!   one `aesenc`/`aesdec` instruction, and the decryption schedule comes
//!   from `aesimc`. The instructions make no secret-indexed table lookups, so
//!   this path runs in constant time.
//! * **Tables**, everywhere else: each round is sixteen lookups into four
//!   256-entry `u32` tables that fold SubBytes, ShiftRows and MixColumns
//!   together (`TE` to encrypt, `TD` to decrypt), over a state of four
//!   big-endian column words. Decryption is the equivalent inverse cipher of
//!   FIPS-197 §5.3.5: the same round shape as encryption, over a key schedule
//!   whose middle round keys went through InvMixColumns once, at key
//!   expansion. The tables are built at compile time from the S-box. Table
//!   lookups indexed by secret bytes are not constant-time; neither were the
//!   S-box lookups of the byte-wise rounds they replace. The cipher runs on
//!   the trusted client only, whose threat model (the paper's) is an
//!   untrusted *server*, not a co-resident attacker timing the client's cache.
//!
//! FFX and OPE chain many dependent blocks per value. Each is written once, as
//! a [`BlockJob`] generic over the [`BlockFn`], and [`Aes128::run`] runs the
//! whole job inside one AES-NI frame, so no block pays for a call and a round
//! key reload.
//!
//! Both paths give the same bits. Both are verified against the FIPS-197
//! appendix vectors and, block for block, against the byte-wise rounds of the
//! specification kept as a test oracle; the DET, RND and OPE tests assert
//! known-answer ciphertexts on both.

#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod ni;

/// AES S-box.
const SBOX: [u8; 256] = [
    0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67, 0x2b, 0xfe, 0xd7, 0xab, 0x76,
    0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0, 0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4, 0x72, 0xc0,
    0xb7, 0xfd, 0x93, 0x26, 0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1, 0x71, 0xd8, 0x31, 0x15,
    0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a, 0x07, 0x12, 0x80, 0xe2, 0xeb, 0x27, 0xb2, 0x75,
    0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0, 0x52, 0x3b, 0xd6, 0xb3, 0x29, 0xe3, 0x2f, 0x84,
    0x53, 0xd1, 0x00, 0xed, 0x20, 0xfc, 0xb1, 0x5b, 0x6a, 0xcb, 0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf,
    0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45, 0xf9, 0x02, 0x7f, 0x50, 0x3c, 0x9f, 0xa8,
    0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5, 0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2,
    0xcd, 0x0c, 0x13, 0xec, 0x5f, 0x97, 0x44, 0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73,
    0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a, 0x90, 0x88, 0x46, 0xee, 0xb8, 0x14, 0xde, 0x5e, 0x0b, 0xdb,
    0xe0, 0x32, 0x3a, 0x0a, 0x49, 0x06, 0x24, 0x5c, 0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79,
    0xe7, 0xc8, 0x37, 0x6d, 0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08,
    0xba, 0x78, 0x25, 0x2e, 0x1c, 0xa6, 0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f, 0x4b, 0xbd, 0x8b, 0x8a,
    0x70, 0x3e, 0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e, 0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e,
    0xe1, 0xf8, 0x98, 0x11, 0x69, 0xd9, 0x8e, 0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
    0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f, 0xb0, 0x54, 0xbb, 0x16,
];

/// AES inverse S-box.
const INV_SBOX: [u8; 256] = [
    0x52, 0x09, 0x6a, 0xd5, 0x30, 0x36, 0xa5, 0x38, 0xbf, 0x40, 0xa3, 0x9e, 0x81, 0xf3, 0xd7, 0xfb,
    0x7c, 0xe3, 0x39, 0x82, 0x9b, 0x2f, 0xff, 0x87, 0x34, 0x8e, 0x43, 0x44, 0xc4, 0xde, 0xe9, 0xcb,
    0x54, 0x7b, 0x94, 0x32, 0xa6, 0xc2, 0x23, 0x3d, 0xee, 0x4c, 0x95, 0x0b, 0x42, 0xfa, 0xc3, 0x4e,
    0x08, 0x2e, 0xa1, 0x66, 0x28, 0xd9, 0x24, 0xb2, 0x76, 0x5b, 0xa2, 0x49, 0x6d, 0x8b, 0xd1, 0x25,
    0x72, 0xf8, 0xf6, 0x64, 0x86, 0x68, 0x98, 0x16, 0xd4, 0xa4, 0x5c, 0xcc, 0x5d, 0x65, 0xb6, 0x92,
    0x6c, 0x70, 0x48, 0x50, 0xfd, 0xed, 0xb9, 0xda, 0x5e, 0x15, 0x46, 0x57, 0xa7, 0x8d, 0x9d, 0x84,
    0x90, 0xd8, 0xab, 0x00, 0x8c, 0xbc, 0xd3, 0x0a, 0xf7, 0xe4, 0x58, 0x05, 0xb8, 0xb3, 0x45, 0x06,
    0xd0, 0x2c, 0x1e, 0x8f, 0xca, 0x3f, 0x0f, 0x02, 0xc1, 0xaf, 0xbd, 0x03, 0x01, 0x13, 0x8a, 0x6b,
    0x3a, 0x91, 0x11, 0x41, 0x4f, 0x67, 0xdc, 0xea, 0x97, 0xf2, 0xcf, 0xce, 0xf0, 0xb4, 0xe6, 0x73,
    0x96, 0xac, 0x74, 0x22, 0xe7, 0xad, 0x35, 0x85, 0xe2, 0xf9, 0x37, 0xe8, 0x1c, 0x75, 0xdf, 0x6e,
    0x47, 0xf1, 0x1a, 0x71, 0x1d, 0x29, 0xc5, 0x89, 0x6f, 0xb7, 0x62, 0x0e, 0xaa, 0x18, 0xbe, 0x1b,
    0xfc, 0x56, 0x3e, 0x4b, 0xc6, 0xd2, 0x79, 0x20, 0x9a, 0xdb, 0xc0, 0xfe, 0x78, 0xcd, 0x5a, 0xf4,
    0x1f, 0xdd, 0xa8, 0x33, 0x88, 0x07, 0xc7, 0x31, 0xb1, 0x12, 0x10, 0x59, 0x27, 0x80, 0xec, 0x5f,
    0x60, 0x51, 0x7f, 0xa9, 0x19, 0xb5, 0x4a, 0x0d, 0x2d, 0xe5, 0x7a, 0x9f, 0x93, 0xc9, 0x9c, 0xef,
    0xa0, 0xe0, 0x3b, 0x4d, 0xae, 0x2a, 0xf5, 0xb0, 0xc8, 0xeb, 0xbb, 0x3c, 0x83, 0x53, 0x99, 0x61,
    0x17, 0x2b, 0x04, 0x7e, 0xba, 0x77, 0xd6, 0x26, 0xe1, 0x69, 0x14, 0x63, 0x55, 0x21, 0x0c, 0x7d,
];

const RCON: [u8; 10] = [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1b, 0x36];

const fn xtime(x: u8) -> u8 {
    (x << 1) ^ (((x >> 7) & 1) * 0x1b)
}

/// Multiply in GF(2^8).
const fn gmul(a: u8, b: u8) -> u8 {
    let mut result = 0u8;
    let mut a = a;
    let mut b = b;
    while b != 0 {
        if b & 1 == 1 {
            result ^= a;
        }
        a = xtime(a);
        b >>= 1;
    }
    result
}

/// The four round tables for one direction: `T[0][x]` is the MixColumns
/// column `coeffs · sbox[x]` as a big-endian word, and `T[i]` is `T[0]`
/// rotated right by `i` bytes (the contribution of a byte in row `i`).
const fn round_tables(sbox: &[u8; 256], coeffs: [u8; 4]) -> [[u32; 256]; 4] {
    let mut t = [[0u32; 256]; 4];
    let mut x = 0;
    while x < 256 {
        let s = sbox[x];
        let word = u32::from_be_bytes([
            gmul(s, coeffs[0]),
            gmul(s, coeffs[1]),
            gmul(s, coeffs[2]),
            gmul(s, coeffs[3]),
        ]);
        let mut i = 0;
        while i < 4 {
            t[i][x] = word.rotate_right(8 * i as u32);
            i += 1;
        }
        x += 1;
    }
    t
}

static TE: [[u32; 256]; 4] = round_tables(&SBOX, [2, 1, 1, 3]);
static TD: [[u32; 256]; 4] = round_tables(&INV_SBOX, [14, 9, 13, 11]);

/// Byte `row` (0 = most significant) of a column word, as a table index.
#[inline(always)]
fn byte(word: u32, row: u32) -> usize {
    (word >> (24 - 8 * row)) as u8 as usize
}

/// One column of a table round: the bytes of rows 0..4 come from four
/// different input columns (that is ShiftRows).
#[inline(always)]
fn round_column(t: &[[u32; 256]; 4], w0: u32, w1: u32, w2: u32, w3: u32, key: u32) -> u32 {
    t[0][byte(w0, 0)] ^ t[1][byte(w1, 1)] ^ t[2][byte(w2, 2)] ^ t[3][byte(w3, 3)] ^ key
}

/// One column of the last round, which has no MixColumns: plain S-box bytes.
#[inline(always)]
fn last_column(sbox: &[u8; 256], w0: u32, w1: u32, w2: u32, w3: u32, key: u32) -> u32 {
    u32::from_be_bytes([
        sbox[byte(w0, 0)],
        sbox[byte(w1, 1)],
        sbox[byte(w2, 2)],
        sbox[byte(w3, 3)],
    ]) ^ key
}

/// SubBytes on one word.
fn sub_word(w: u32) -> u32 {
    last_column(&SBOX, w, w, w, w, 0)
}

fn load(block: &[u8; 16]) -> [u32; 4] {
    std::array::from_fn(|c| {
        u32::from_be_bytes([
            block[4 * c],
            block[4 * c + 1],
            block[4 * c + 2],
            block[4 * c + 3],
        ])
    })
}

fn store(block: &mut [u8; 16], words: [u32; 4]) {
    for (chunk, word) in block.chunks_exact_mut(4).zip(words) {
        chunk.copy_from_slice(&word.to_be_bytes());
    }
}

/// The round keys of the table path.
#[derive(Clone)]
struct TableKeys {
    /// Round keys as column words, in encryption order.
    enc_keys: [[u32; 4]; 11],
    /// Round keys of the equivalent inverse cipher, in decryption order.
    dec_keys: [[u32; 4]; 11],
}

impl TableKeys {
    /// Expands a 128-bit key into both round key schedules.
    fn new(key: &[u8; 16]) -> Self {
        let mut w = [0u32; 44];
        w[..4].copy_from_slice(&load(key));
        for i in 4..44 {
            let mut temp = w[i - 1];
            if i % 4 == 0 {
                temp = sub_word(temp.rotate_left(8)) ^ (u32::from(RCON[i / 4 - 1]) << 24);
            }
            w[i] = w[i - 4] ^ temp;
        }
        let enc_keys: [[u32; 4]; 11] =
            std::array::from_fn(|round| std::array::from_fn(|c| w[4 * round + c]));
        // Equivalent inverse cipher: round keys in reverse round order, the
        // nine middle ones through InvMixColumns. `TD` applies InvSubBytes
        // first, so feed it S-box outputs to get InvMixColumns alone.
        let dec_keys = std::array::from_fn(|round| {
            let key = enc_keys[10 - round];
            if round == 0 || round == 10 {
                key
            } else {
                key.map(|word| {
                    let s = sub_word(word);
                    round_column(&TD, s, s, s, s, 0)
                })
            }
        });
        TableKeys { enc_keys, dec_keys }
    }

    fn encrypt_block(&self, block: &mut [u8; 16]) {
        let [first, middle @ .., last] = &self.enc_keys;
        let [mut s0, mut s1, mut s2, mut s3] = load(block);
        s0 ^= first[0];
        s1 ^= first[1];
        s2 ^= first[2];
        s3 ^= first[3];
        for k in middle {
            let t0 = round_column(&TE, s0, s1, s2, s3, k[0]);
            let t1 = round_column(&TE, s1, s2, s3, s0, k[1]);
            let t2 = round_column(&TE, s2, s3, s0, s1, k[2]);
            let t3 = round_column(&TE, s3, s0, s1, s2, k[3]);
            (s0, s1, s2, s3) = (t0, t1, t2, t3);
        }
        store(
            block,
            [
                last_column(&SBOX, s0, s1, s2, s3, last[0]),
                last_column(&SBOX, s1, s2, s3, s0, last[1]),
                last_column(&SBOX, s2, s3, s0, s1, last[2]),
                last_column(&SBOX, s3, s0, s1, s2, last[3]),
            ],
        );
    }

    fn decrypt_block(&self, block: &mut [u8; 16]) {
        let [first, middle @ .., last] = &self.dec_keys;
        let [mut s0, mut s1, mut s2, mut s3] = load(block);
        s0 ^= first[0];
        s1 ^= first[1];
        s2 ^= first[2];
        s3 ^= first[3];
        // InvShiftRows rotates the other way: row r comes from column c - r.
        for k in middle {
            let t0 = round_column(&TD, s0, s3, s2, s1, k[0]);
            let t1 = round_column(&TD, s1, s0, s3, s2, k[1]);
            let t2 = round_column(&TD, s2, s1, s0, s3, k[2]);
            let t3 = round_column(&TD, s3, s2, s1, s0, k[3]);
            (s0, s1, s2, s3) = (t0, t1, t2, t3);
        }
        store(
            block,
            [
                last_column(&INV_SBOX, s0, s3, s2, s1, last[0]),
                last_column(&INV_SBOX, s1, s0, s3, s2, last[1]),
                last_column(&INV_SBOX, s2, s1, s0, s3, last[2]),
                last_column(&INV_SBOX, s3, s2, s1, s0, last[3]),
            ],
        );
    }
}

impl BlockFn for TableKeys {
    #[inline]
    fn prf_u128(&self, input: u128) -> u128 {
        let mut block = input.to_be_bytes();
        self.encrypt_block(&mut block);
        u128::from_be_bytes(block)
    }
}

/// AES-128 encryption of one block as a PRF on `u128` (big-endian bytes in
/// and out): the block function that FFX and OPE are written against.
pub trait BlockFn {
    fn prf_u128(&self, input: u128) -> u128;
}

/// A computation that encrypts many blocks, written once and generic over
/// the block function, so that [`Aes128::run`] can run it with the rounds
/// inlined (on the hardware path, inside one AES-NI frame).
pub trait BlockJob {
    type Output;
    fn run<B: BlockFn>(self, aes: &B) -> Self::Output;
}

/// Which round implementation a key was expanded for.
#[derive(Clone)]
enum Rounds {
    #[cfg(target_arch = "x86_64")]
    Ni(ni::NiKeys),
    Table(TableKeys),
}

/// AES-128 cipher with an expanded key schedule.
#[derive(Clone)]
pub struct Aes128 {
    rounds: Rounds,
}

impl Aes128 {
    /// Expands a 128-bit key for the AES-NI rounds where the CPU has them,
    /// and for the table rounds otherwise.
    pub fn new(key: &[u8; 16]) -> Self {
        let table = TableKeys::new(key);
        #[cfg(target_arch = "x86_64")]
        if let Some(keys) = ni::NiKeys::new(&table.enc_keys) {
            return Aes128 {
                rounds: Rounds::Ni(keys),
            };
        }
        Aes128 {
            rounds: Rounds::Table(table),
        }
    }

    /// The key expanded for every round implementation this CPU can run:
    /// the table rounds, then AES-NI when it is detected.
    #[cfg(test)]
    pub(crate) fn every_path(key: &[u8; 16]) -> Vec<Self> {
        let mut paths = vec![Aes128 {
            rounds: Rounds::Table(TableKeys::new(key)),
        }];
        let native = Self::new(key);
        if !matches!(native.rounds, Rounds::Table(_)) {
            paths.push(native);
        }
        paths
    }

    /// Encrypts a single 16-byte block in place.
    pub fn encrypt_block(&self, block: &mut [u8; 16]) {
        match &self.rounds {
            #[cfg(target_arch = "x86_64")]
            Rounds::Ni(keys) => keys.encrypt_block(block),
            Rounds::Table(keys) => keys.encrypt_block(block),
        }
    }

    /// Decrypts a single 16-byte block in place.
    pub fn decrypt_block(&self, block: &mut [u8; 16]) {
        match &self.rounds {
            #[cfg(target_arch = "x86_64")]
            Rounds::Ni(keys) => keys.decrypt_block(block),
            Rounds::Table(keys) => keys.decrypt_block(block),
        }
    }

    /// Encrypts a copy of the block and returns it.
    pub fn encrypt(&self, block: [u8; 16]) -> [u8; 16] {
        let mut b = block;
        self.encrypt_block(&mut b);
        b
    }

    /// Decrypts a copy of the block and returns it.
    pub fn decrypt(&self, block: [u8; 16]) -> [u8; 16] {
        let mut b = block;
        self.decrypt_block(&mut b);
        b
    }

    /// Uses the cipher as a pseudorandom function on a 128-bit input, returning
    /// the 128-bit output as a `u128`.
    pub fn prf_u128(&self, input: u128) -> u128 {
        match &self.rounds {
            #[cfg(target_arch = "x86_64")]
            Rounds::Ni(keys) => keys.prf_u128(input),
            Rounds::Table(keys) => keys.prf_u128(input),
        }
    }

    /// Runs `job` against this key's block function. Every block the job
    /// encrypts costs what a block costs inlined: the match on the round
    /// implementation happens once, not once per block.
    #[inline]
    pub fn run<J: BlockJob>(&self, job: J) -> J::Output {
        match &self.rounds {
            #[cfg(target_arch = "x86_64")]
            Rounds::Ni(keys) => keys.run(job),
            Rounds::Table(keys) => job.run(keys),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The cipher exactly as FIPS-197 §5.1/§5.3 states it: byte-wise
    /// SubBytes, ShiftRows, MixColumns over GF(2^8) and the straight inverse
    /// cipher. Slow and obviously right; the table-driven rounds are checked
    /// against it.
    mod oracle {
        use super::super::{gmul, INV_SBOX, RCON, SBOX};

        pub struct Aes128 {
            round_keys: [[u8; 16]; 11],
        }

        impl Aes128 {
            pub fn new(key: &[u8; 16]) -> Self {
                let mut w = [[0u8; 4]; 44];
                for i in 0..4 {
                    w[i] = [key[4 * i], key[4 * i + 1], key[4 * i + 2], key[4 * i + 3]];
                }
                for i in 4..44 {
                    let mut temp = w[i - 1];
                    if i % 4 == 0 {
                        temp = [
                            SBOX[temp[1] as usize] ^ RCON[i / 4 - 1],
                            SBOX[temp[2] as usize],
                            SBOX[temp[3] as usize],
                            SBOX[temp[0] as usize],
                        ];
                    }
                    for j in 0..4 {
                        w[i][j] = w[i - 4][j] ^ temp[j];
                    }
                }
                let mut round_keys = [[0u8; 16]; 11];
                for r in 0..11 {
                    for c in 0..4 {
                        round_keys[r][4 * c..4 * c + 4].copy_from_slice(&w[4 * r + c]);
                    }
                }
                Aes128 { round_keys }
            }

            fn add_round_key(state: &mut [u8; 16], rk: &[u8; 16]) {
                for i in 0..16 {
                    state[i] ^= rk[i];
                }
            }

            fn sub_bytes(state: &mut [u8; 16], sbox: &[u8; 256]) {
                for b in state.iter_mut() {
                    *b = sbox[*b as usize];
                }
            }

            fn shift_rows(state: &mut [u8; 16]) {
                // State is column-major: state[r + 4c].
                let s = *state;
                for r in 1..4 {
                    for c in 0..4 {
                        state[r + 4 * c] = s[r + 4 * ((c + r) % 4)];
                    }
                }
            }

            fn inv_shift_rows(state: &mut [u8; 16]) {
                let s = *state;
                for r in 1..4 {
                    for c in 0..4 {
                        state[r + 4 * ((c + r) % 4)] = s[r + 4 * c];
                    }
                }
            }

            /// Multiplies every column by the circulant matrix whose first
            /// row is `m`.
            fn mix_columns(state: &mut [u8; 16], m: [u8; 4]) {
                for c in 0..4 {
                    let col = [
                        state[4 * c],
                        state[4 * c + 1],
                        state[4 * c + 2],
                        state[4 * c + 3],
                    ];
                    for r in 0..4 {
                        state[4 * c + r] =
                            (0..4).fold(0, |acc, i| acc ^ gmul(col[i], m[(i + 4 - r) % 4]));
                    }
                }
            }

            pub fn encrypt(&self, mut block: [u8; 16]) -> [u8; 16] {
                Self::add_round_key(&mut block, &self.round_keys[0]);
                for round in 1..10 {
                    Self::sub_bytes(&mut block, &SBOX);
                    Self::shift_rows(&mut block);
                    Self::mix_columns(&mut block, [2, 3, 1, 1]);
                    Self::add_round_key(&mut block, &self.round_keys[round]);
                }
                Self::sub_bytes(&mut block, &SBOX);
                Self::shift_rows(&mut block);
                Self::add_round_key(&mut block, &self.round_keys[10]);
                block
            }

            pub fn decrypt(&self, mut block: [u8; 16]) -> [u8; 16] {
                Self::add_round_key(&mut block, &self.round_keys[10]);
                for round in (1..10).rev() {
                    Self::inv_shift_rows(&mut block);
                    Self::sub_bytes(&mut block, &INV_SBOX);
                    Self::add_round_key(&mut block, &self.round_keys[round]);
                    Self::mix_columns(&mut block, [14, 11, 13, 9]);
                }
                Self::inv_shift_rows(&mut block);
                Self::sub_bytes(&mut block, &INV_SBOX);
                Self::add_round_key(&mut block, &self.round_keys[0]);
                block
            }
        }
    }

    fn hex(s: &str) -> Vec<u8> {
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
            .collect()
    }

    /// Key, plaintext, ciphertext.
    const FIPS197_VECTORS: [(&str, &str, &str); 2] = [
        // Appendix B.
        (
            "2b7e151628aed2a6abf7158809cf4f3c",
            "3243f6a8885a308d313198a2e0370734",
            "3925841d02dc09fbdc118597196a0b32",
        ),
        // Appendix C.1.
        (
            "000102030405060708090a0b0c0d0e0f",
            "00112233445566778899aabbccddeeff",
            "69c4e0d86a7b0430d8cdb78070b4c55a",
        ),
    ];

    #[test]
    fn fips197_vectors() {
        for (key, pt, ct) in FIPS197_VECTORS {
            let key: [u8; 16] = hex(key).try_into().unwrap();
            let pt: [u8; 16] = hex(pt).try_into().unwrap();
            let ct: [u8; 16] = hex(ct).try_into().unwrap();
            for aes in Aes128::every_path(&key) {
                assert_eq!(aes.encrypt(pt), ct);
                assert_eq!(aes.decrypt(ct), pt);
            }
            let oracle = oracle::Aes128::new(&key);
            assert_eq!(oracle.encrypt(pt), ct);
            assert_eq!(oracle.decrypt(ct), pt);
        }
    }

    #[test]
    fn fips197_appendix_a1_key_expansion() {
        let key: [u8; 16] = hex("2b7e151628aed2a6abf7158809cf4f3c").try_into().unwrap();
        let keys = TableKeys::new(&key);
        assert_eq!(keys.enc_keys[1][0], 0xa0fafe17);
        assert_eq!(keys.enc_keys[10][3], 0xb6630ca6);
        // The outer round keys of the inverse schedule are the outer round
        // keys of the forward one, swapped and untransformed.
        assert_eq!(keys.dec_keys[0], keys.enc_keys[10]);
        assert_eq!(keys.dec_keys[10], keys.enc_keys[0]);
    }

    /// A job that encrypts its blocks through [`Aes128::run`].
    struct PrfAll<'a>(&'a [u128]);

    impl BlockJob for PrfAll<'_> {
        type Output = Vec<u128>;
        fn run<B: BlockFn>(self, aes: &B) -> Vec<u128> {
            self.0.iter().map(|&x| aes.prf_u128(x)).collect()
        }
    }

    /// Both round implementations (the hardware one where the CPU has
    /// AES-NI), in both directions, through every entry point, against the
    /// byte-wise rounds. The decryption side covers each path's inverse key
    /// schedule (`TD` folding on the table path, `aesimc` on AES-NI).
    #[test]
    fn table_rounds_match_the_bytewise_oracle() {
        let mut rng = StdRng::seed_from_u64(0xae5_7ab1e);
        for _ in 0..100 {
            let mut key = [0u8; 16];
            rng.fill(&mut key);
            let oracle = oracle::Aes128::new(&key);
            let blocks: Vec<[u8; 16]> = (0..100)
                .map(|_| {
                    let mut block = [0u8; 16];
                    rng.fill(&mut block);
                    block
                })
                .collect();
            let inputs: Vec<u128> = blocks.iter().map(|b| u128::from_be_bytes(*b)).collect();
            let expected: Vec<u128> = blocks
                .iter()
                .map(|b| u128::from_be_bytes(oracle.encrypt(*b)))
                .collect();
            for aes in Aes128::every_path(&key) {
                for &block in &blocks {
                    let ct = aes.encrypt(block);
                    assert_eq!(ct, oracle.encrypt(block), "encrypt, key {key:02x?}");
                    assert_eq!(
                        aes.decrypt(block),
                        oracle.decrypt(block),
                        "decrypt, key {key:02x?}"
                    );
                    assert_eq!(aes.decrypt(ct), block);
                }
                let singly: Vec<u128> = inputs.iter().map(|&x| aes.prf_u128(x)).collect();
                assert_eq!(singly, expected, "prf_u128, key {key:02x?}");
                assert_eq!(aes.run(PrfAll(&inputs)), expected, "run, key {key:02x?}");
            }
        }
    }

    /// Where the CPU has AES-NI, `new` picks it: a silent fallback to the
    /// tables would still pass every bit-identity test.
    #[test]
    fn new_uses_aes_ni_where_the_cpu_has_it() {
        let aes = Aes128::new(&[7; 16]);
        #[cfg(target_arch = "x86_64")]
        if std::is_x86_feature_detected!("aes") {
            assert!(matches!(aes.rounds, Rounds::Ni(_)));
            assert_eq!(Aes128::every_path(&[7; 16]).len(), 2);
            return;
        }
        assert!(matches!(aes.rounds, Rounds::Table(_)));
    }

    #[test]
    fn different_keys_differ() {
        let a = Aes128::new(b"0123456789abcdef");
        let b = Aes128::new(b"0123456789abcdeg");
        let block = [42u8; 16];
        assert_ne!(a.encrypt(block), b.encrypt(block));
    }

    #[test]
    fn gf_multiplication_basics() {
        assert_eq!(gmul(0x57, 0x83), 0xc1);
        assert_eq!(gmul(0x57, 0x13), 0xfe);
    }
}
