//! Standard base64 (RFC 4648 §4, padded) for tensor payloads: the text a
//! [`Tensor`](crate::Tensor) serializes its native-width bytes as.
//!
//! The decoder is strict, so text and bytes map one-to-one: it refuses a
//! length that is not a multiple of four, a byte outside the alphabet
//! (whitespace, and `=` anywhere but the last one or two places,
//! included), and non-zero bits under the padding.

use std::fmt;

const ALPHABET: &[u8; 64] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";

/// Marks a byte outside [`ALPHABET`] in [`SEXTETS`].
const INVALID: u8 = 0xff;

/// Each byte's six-bit value, or [`INVALID`].
const SEXTETS: [u8; 256] = {
    let mut table = [INVALID; 256];
    let mut i = 0;
    while i < 64 {
        table[ALPHABET[i] as usize] = i as u8;
        i += 1;
    }
    table
};

/// Why a payload text was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Base64Error {
    /// The text's length is not a multiple of four.
    Length(usize),
    /// The byte at `at` is not in the alphabet, and not closing padding.
    Byte { at: usize, byte: u8 },
    /// The last character before the padding has bits past the data.
    PadBits,
}

impl fmt::Display for Base64Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Base64Error::Length(n) => write!(f, "base64 length {n} is not a multiple of 4"),
            Base64Error::Byte { at, byte } => write!(f, "byte {byte:#04x} at {at} is not base64"),
            Base64Error::PadBits => f.write_str("non-zero bits under the base64 padding"),
        }
    }
}

/// The base64 text of `data`'s elements, each written as its `width`
/// (1, 2 or 4) low-order bytes, little-endian.
pub(crate) fn encode(data: &[i32], width: usize) -> String {
    match width {
        1 => encode_at::<1>(data),
        2 => encode_at::<2>(data),
        _ => encode_at::<4>(data),
    }
}

/// [`encode`] at width `W`. Three elements are `W` groups of three
/// bytes, `4 * W` characters, so the text is written straight from the
/// elements with no byte buffer on the way.
fn encode_at<const W: usize>(data: &[i32]) -> String {
    let mut out = vec![b'='; (data.len() * W).div_ceil(3) * 4];
    let narrow = |elems: &[i32]| {
        let mut bytes = [0u8; 12];
        for (dst, v) in bytes.chunks_exact_mut(W).zip(elems) {
            dst.copy_from_slice(&v.to_le_bytes()[..W]);
        }
        bytes
    };
    let chunks = data.chunks_exact(3);
    let tail = chunks.remainder();
    let (body, rest) = out.split_at_mut(data.len() / 3 * 4 * W);
    for (elems, dst) in chunks.zip(body.chunks_exact_mut(4 * W)) {
        for (src, q) in narrow(elems).chunks_exact(3).zip(dst.chunks_exact_mut(4)) {
            q.copy_from_slice(&quantum(src));
        }
    }
    // One or two elements are left: whole quanta, then one `=`-padded.
    let bytes = narrow(tail);
    for (src, q) in bytes[..tail.len() * W].chunks(3).zip(rest.chunks_mut(4)) {
        q[..=src.len()].copy_from_slice(&quantum(src)[..=src.len()]);
    }
    String::from_utf8(out).expect("the base64 alphabet is ASCII")
}

/// The four characters of up to three bytes, zero-filled on the right.
#[inline]
fn quantum(bytes: &[u8]) -> [u8; 4] {
    let n = bytes
        .iter()
        .enumerate()
        .fold(0, |n, (i, &b)| n | u32::from(b) << (16 - 8 * i));
    [18, 12, 6, 0].map(|shift| ALPHABET[(n >> shift & 63) as usize])
}

/// The bytes of a strict base64 text.
pub(crate) fn decode(text: &str) -> Result<Vec<u8>, Base64Error> {
    let text = text.as_bytes();
    if !text.len().is_multiple_of(4) {
        return Err(Base64Error::Length(text.len()));
    }
    // Up to two `=` close the text; any other `=` is refused below.
    let pad = text.iter().rev().take_while(|&&b| b == b'=').count().min(2);
    let data = &text[..text.len() - pad];
    let mut out = Vec::with_capacity(text.len() / 4 * 3);
    let mut quads = data.chunks_exact(4);
    for (q, quad) in (&mut quads).enumerate() {
        out.extend_from_slice(&sextets(quad, 4 * q)?.to_be_bytes()[1..]);
    }
    let tail = quads.remainder();
    if !tail.is_empty() {
        let n = sextets(tail, data.len() - tail.len())? << (6 * pad);
        let bytes = &n.to_be_bytes()[1..];
        if bytes[3 - pad..].iter().any(|&b| b != 0) {
            return Err(Base64Error::PadBits);
        }
        out.extend_from_slice(&bytes[..3 - pad]);
    }
    Ok(out)
}

/// The six-bit values of up to four characters, first one highest; `at`
/// is the text offset of `chars[0]`.
#[inline]
fn sextets(chars: &[u8], at: usize) -> Result<u32, Base64Error> {
    chars
        .iter()
        .enumerate()
        .try_fold(0, |n, (i, &byte)| match SEXTETS[usize::from(byte)] {
            INVALID => Err(Base64Error::Byte { at: at + i, byte }),
            v => Ok(n << 6 | u32::from(v)),
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bytes(text: &str) -> Vec<i32> {
        text.bytes().map(i32::from).collect()
    }

    #[test]
    fn rfc_4648_vectors() {
        for (plain, coded) in [
            ("", ""),
            ("f", "Zg=="),
            ("fo", "Zm8="),
            ("foo", "Zm9v"),
            ("foob", "Zm9vYg=="),
            ("fooba", "Zm9vYmE="),
            ("foobar", "Zm9vYmFy"),
        ] {
            assert_eq!(encode(&bytes(plain), 1), coded);
            assert_eq!(decode(coded).unwrap(), plain.as_bytes());
        }
    }

    #[test]
    fn elements_are_written_little_endian_at_their_width() {
        assert_eq!(encode(&[-3, 0, 127], 1), "/QB/");
        let wide = [-32768, 32767, -1, 0, 1];
        for width in [2, 4] {
            let le: Vec<u8> = wide
                .iter()
                .flat_map(|v: &i32| v.to_le_bytes()[..width].to_vec())
                .collect();
            let text = encode(&wide, width);
            assert_eq!(
                text,
                encode(&le.iter().map(|&b| i32::from(b)).collect::<Vec<_>>(), 1)
            );
            assert_eq!(decode(&text).unwrap(), le);
        }
    }

    #[test]
    fn every_short_payload_round_trips() {
        let mut data = Vec::new();
        for n in 0..=7 {
            for seed in 0..64 {
                data.clear();
                data.extend((0..n).map(|i: i32| (i * 37 + seed * 11) % 256 - 128));
                let text = encode(&data, 1);
                let back: Vec<i32> = decode(&text)
                    .unwrap()
                    .iter()
                    .map(|&b| i32::from(b as i8))
                    .collect();
                assert_eq!(back, data, "{text}");
            }
        }
    }

    #[test]
    fn each_kind_of_non_canonical_text_is_refused() {
        let refused = [
            ("Zm9", Base64Error::Length(3)),
            ("Zg=", Base64Error::Length(3)),
            ("Zg===", Base64Error::Length(5)),
            ("Zg", Base64Error::Length(2)),
            ("Zm9v\n", Base64Error::Length(5)),
            ("Zm 9", Base64Error::Byte { at: 2, byte: b' ' }),
            ("Zm9v\nZg=", Base64Error::Byte { at: 4, byte: b'\n' }),
            ("Zm9\t", Base64Error::Byte { at: 3, byte: b'\t' }),
            ("Zm9-", Base64Error::Byte { at: 3, byte: b'-' }),
            ("Zm9_Zm9v", Base64Error::Byte { at: 3, byte: b'_' }),
            ("Z===", Base64Error::Byte { at: 1, byte: b'=' }),
            ("====", Base64Error::Byte { at: 0, byte: b'=' }),
            ("Zg==Zm9v", Base64Error::Byte { at: 2, byte: b'=' }),
            ("Z=g=", Base64Error::Byte { at: 1, byte: b'=' }),
            ("Zh==", Base64Error::PadBits),
            ("Zm9=", Base64Error::PadBits),
        ];
        for (text, want) in refused {
            assert_eq!(decode(text), Err(want), "{text:?}");
            assert!(!want.to_string().is_empty());
        }
    }

    #[test]
    fn accepted_text_is_the_encoding_of_what_it_decodes_to() {
        // Every quantum over the alphabet plus `=` whose last character
        // is `=` or `/`.
        let symbols: Vec<u8> = ALPHABET.iter().copied().chain([b'=']).collect();
        let mut accepted = 0;
        for &a in &symbols {
            for &b in &symbols {
                for &c in &symbols {
                    for d in [b'=', b'/'] {
                        let text = String::from_utf8(vec![a, b, c, d]).unwrap();
                        if let Ok(raw) = decode(&text) {
                            let elems: Vec<i32> = raw.iter().map(|&x| i32::from(x)).collect();
                            assert_eq!(encode(&elems, 1), text);
                            accepted += 1;
                        }
                    }
                }
            }
        }
        // "xy==" keeps 2 of b's 6 bits, "xyz=" 4 of c's, "xyz/" all.
        assert_eq!(accepted, 64 * 4 + 64 * 64 * 16 + 64 * 64 * 64);
    }
}
