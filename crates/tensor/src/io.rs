//! Plain-text COO serialization.
//!
//! Format: a header line `# shape: d1 d2 ... dN`, then one entry per line
//! as `i1 i2 ... iN value` (0-based indices, whitespace-separated). This is
//! the format the examples and the bench harness use to exchange tensors.

use crate::coo::CooTensor;
use crate::{Result, TensorError};
use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::path::Path;

/// Write a tensor as text.
pub fn write_coo<W: Write>(t: &CooTensor, w: W) -> std::io::Result<()> {
    let mut out = BufWriter::new(w);
    write!(out, "# shape:")?;
    for d in t.shape() {
        write!(out, " {d}")?;
    }
    writeln!(out)?;
    for (idx, v) in t.iter() {
        for i in idx {
            write!(out, "{i} ")?;
        }
        writeln!(out, "{v}")?;
    }
    out.flush()
}

/// Write a tensor to a file path.
pub fn write_coo_file<P: AsRef<Path>>(t: &CooTensor, path: P) -> std::io::Result<()> {
    write_coo(t, std::fs::File::create(path)?)
}

/// Parse a tensor from text.
///
/// Lines are read into one reused byte buffer and entry lines are parsed
/// as bytes — no `String` per line, and never the whole input in memory.
/// Fields are separated by ASCII whitespace (CRLF line ends included);
/// blank lines and lines starting with `#` are skipped. Anything else
/// that is not `N` in-range indices and one value — a non-UTF-8 byte, an
/// index past `usize`, a trailing field — is a typed
/// [`TensorError::Parse`] (bounds: [`TensorError::IndexOutOfBounds`]); a
/// failing reader is [`TensorError::Io`].
pub fn read_coo<R: Read>(r: R) -> Result<CooTensor> {
    let mut reader = BufReader::new(r);
    let mut line = Vec::new();
    let mut next_line = |line: &mut Vec<u8>| -> Result<bool> {
        line.clear();
        let n = reader.read_until(b'\n', line).map_err(|e| TensorError::Io(e.to_string()))?;
        Ok(n > 0)
    };
    if !next_line(&mut line)? {
        return Err(TensorError::Parse("empty input".into()));
    }
    let header = std::str::from_utf8(&line)
        .map_err(|e| TensorError::Parse(format!("bad header: {e}")))?;
    let shape = parse_header(header.trim_end_matches(['\n', '\r']))?;
    let order = shape.len();
    let mut t = CooTensor::try_new(shape)?;
    let mut idx = vec![0usize; order];
    while next_line(&mut line)? {
        let mut fields =
            line.split(|&b| is_space(b)).filter(|f| !f.is_empty()).peekable();
        match fields.peek() {
            Some(first) if first[0] != b'#' => {}
            _ => continue,
        }
        let bad = |what: &str| {
            TensorError::Parse(format!("{what}: {}", String::from_utf8_lossy(&line).trim()))
        };
        for slot in idx.iter_mut() {
            *slot = fields.next().and_then(parse_index).ok_or_else(|| bad("bad entry line"))?;
        }
        let v: f64 = fields
            .next()
            .and_then(|f| std::str::from_utf8(f).ok())
            .and_then(|f| f.parse().ok())
            .ok_or_else(|| bad("bad value in line"))?;
        if fields.next().is_some() {
            return Err(bad("trailing fields in line"));
        }
        t.push(&idx, v)?;
    }
    Ok(t)
}

/// The ASCII members of `char::is_whitespace`: space and `\t`..=`\r`.
fn is_space(b: u8) -> bool {
    matches!(b, b' ' | b'\t'..=b'\r')
}

/// `str::parse::<usize>` on ASCII bytes: an optional `+`, then one or more
/// decimal digits, `None` on anything else and on overflow.
fn parse_index(field: &[u8]) -> Option<usize> {
    let digits = field.strip_prefix(b"+").unwrap_or(field);
    if digits.is_empty() {
        return None;
    }
    digits.iter().try_fold(0usize, |acc, &b| {
        let d = b.checked_sub(b'0').filter(|&d| d <= 9)?;
        acc.checked_mul(10)?.checked_add(d as usize)
    })
}

/// Read a tensor from a file path.
pub fn read_coo_file<P: AsRef<Path>>(path: P) -> Result<CooTensor> {
    read_coo(open(path.as_ref())?)
}

/// Write a CP model as text: a header `# kruskal: N R`, then one factor
/// matrix per `# factor <n>: <rows> <cols>` section, row per line.
pub fn write_kruskal<W: Write>(k: &crate::KruskalTensor, w: W) -> std::io::Result<()> {
    let mut out = BufWriter::new(w);
    writeln!(out, "# kruskal: {} {}", k.order(), k.rank())?;
    for (n, f) in k.factors().iter().enumerate() {
        writeln!(out, "# factor {n}: {} {}", f.rows(), f.cols())?;
        for i in 0..f.rows() {
            let row = f.row(i);
            for (j, v) in row.iter().enumerate() {
                if j > 0 {
                    write!(out, " ")?;
                }
                // 17 significant digits: lossless f64 round-trip.
                write!(out, "{v:.17e}")?;
            }
            writeln!(out)?;
        }
    }
    out.flush()
}

/// Write a CP model to a file path.
pub fn write_kruskal_file<P: AsRef<Path>>(
    k: &crate::KruskalTensor,
    path: P,
) -> std::io::Result<()> {
    write_kruskal(k, std::fs::File::create(path)?)
}

/// Parse a CP model written by [`write_kruskal`].
///
/// The header counts are untrusted: nothing is reserved from them, the
/// buffers grow with the values that arrive, and a factor whose
/// `rows × cols` overflows or differs from its body is a
/// [`TensorError::Parse`]. So is a `# factor <n>:` header whose `n` is
/// not the number of factors before it: a repeated or out-of-order mode
/// never loads as some other mode's factor.
pub fn read_kruskal<R: Read>(r: R) -> Result<crate::KruskalTensor> {
    let reader = BufReader::new(r);
    let mut lines = reader.lines();
    let header = lines
        .next()
        .ok_or_else(|| TensorError::Parse("empty input".into()))?
        .map_err(|e| TensorError::Io(e.to_string()))?;
    let rest = header
        .strip_prefix("# kruskal:")
        .ok_or_else(|| TensorError::Parse(format!("bad kruskal header: {header}")))?;
    let mut parts = rest.split_whitespace();
    let order: usize = parts
        .next()
        .and_then(|p| p.parse().ok())
        .ok_or_else(|| TensorError::Parse("bad order".into()))?;
    let rank: usize = parts
        .next()
        .and_then(|p| p.parse().ok())
        .ok_or_else(|| TensorError::Parse("bad rank".into()))?;

    let mut factors = Vec::new();
    let mut pending: Option<(usize, usize, Vec<f64>)> = None;
    for line in lines {
        let line = line.map_err(|e| TensorError::Io(e.to_string()))?;
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# factor") {
            if let Some((rows, cols, data)) = pending.take() {
                finish_factor(rows, cols, data, rank, &mut factors)?;
            }
            let (mode, dims) = rest
                .split_once(':')
                .ok_or_else(|| TensorError::Parse(format!("bad factor header: {line}")))?;
            if mode.trim().parse::<usize>().ok() != Some(factors.len()) {
                return Err(TensorError::Parse(format!(
                    "factor header {line:?} where factor {} belongs",
                    factors.len()
                )));
            }
            let mut p = dims.split_whitespace();
            let rows: usize = p
                .next()
                .and_then(|x| x.parse().ok())
                .ok_or_else(|| TensorError::Parse("bad factor rows".into()))?;
            let cols: usize = p
                .next()
                .and_then(|x| x.parse().ok())
                .ok_or_else(|| TensorError::Parse("bad factor cols".into()))?;
            pending = Some((rows, cols, Vec::new()));
            continue;
        }
        let (_, _, data) = pending
            .as_mut()
            .ok_or_else(|| TensorError::Parse("data before factor header".into()))?;
        for tok in line.split_whitespace() {
            data.push(
                tok.parse()
                    .map_err(|e| TensorError::Parse(format!("bad value {tok}: {e}")))?,
            );
        }
    }
    if let Some((rows, cols, data)) = pending.take() {
        finish_factor(rows, cols, data, rank, &mut factors)?;
    }
    if factors.len() != order {
        return Err(TensorError::Parse(format!(
            "expected {order} factors, found {}",
            factors.len()
        )));
    }
    crate::KruskalTensor::new(factors)
}

/// Read a CP model from a file path.
pub fn read_kruskal_file<P: AsRef<Path>>(path: P) -> Result<crate::KruskalTensor> {
    read_kruskal(open(path.as_ref())?)
}

fn open(path: &Path) -> Result<std::fs::File> {
    std::fs::File::open(path).map_err(|e| TensorError::Io(format!("{}: {e}", path.display())))
}

fn finish_factor(
    rows: usize,
    cols: usize,
    data: Vec<f64>,
    rank: usize,
    factors: &mut Vec<distenc_linalg::Mat>,
) -> Result<()> {
    if cols != rank || rows.checked_mul(cols) != Some(data.len()) {
        return Err(TensorError::Parse(format!(
            "factor body has {} values for a {rows}x{cols} matrix (rank {rank})",
            data.len()
        )));
    }
    factors.push(distenc_linalg::Mat::from_vec(rows, cols, data));
    Ok(())
}

fn parse_header(header: &str) -> Result<Vec<usize>> {
    let rest = header
        .strip_prefix("# shape:")
        .ok_or_else(|| TensorError::Parse(format!("bad header: {header}")))?;
    let shape: Vec<usize> = rest
        .split_whitespace()
        .map(|p| p.parse())
        .collect::<std::result::Result<_, _>>()
        .map_err(|e| TensorError::Parse(format!("bad header: {e}")))?;
    if shape.is_empty() {
        return Err(TensorError::Parse("empty shape in header".into()));
    }
    Ok(shape)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip() {
        let t = CooTensor::from_entries(
            vec![3, 4, 2],
            &[(&[0, 1, 0], 1.5), (&[2, 3, 1], -0.25)],
        )
        .unwrap();
        let mut buf = Vec::new();
        write_coo(&t, &mut buf).unwrap();
        let back = read_coo(&buf[..]).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn comments_and_blank_lines_skipped() {
        let text = "# shape: 2 2\n\n# a comment\n0 0 3.0\n1 1 4.0\n";
        let t = read_coo(text.as_bytes()).unwrap();
        assert_eq!(t.nnz(), 2);
        assert_eq!(t.value(1), 4.0);
    }

    #[test]
    fn malformed_lines_rejected() {
        assert!(read_coo("# shape: 2 2\n0 0\n".as_bytes()).is_err()); // too few
        assert!(read_coo("# shape: 2 2\n0 0 1.0 9\n".as_bytes()).is_err()); // too many
        assert!(read_coo("bad header\n".as_bytes()).is_err());
        assert!(read_coo("".as_bytes()).is_err());
    }

    #[test]
    fn failures_are_typed_by_cause() {
        // Malformed text is `Parse`, an unreadable source is `Io`; neither
        // is reported as a shape mismatch.
        assert!(matches!(read_coo("bad header\n".as_bytes()), Err(TensorError::Parse(_))));
        assert!(matches!(read_coo("# shape: 2 2\n0 x 1.0\n".as_bytes()), Err(TensorError::Parse(_))));
        assert!(matches!(read_kruskal("nope\n".as_bytes()), Err(TensorError::Parse(_))));
        let missing = std::env::temp_dir().join("distenc-io-test-no-such-file.coo");
        for err in [read_coo_file(&missing).unwrap_err(), read_kruskal_file(&missing).unwrap_err()] {
            match err {
                TensorError::Io(msg) => assert!(msg.contains("no-such-file"), "{msg}"),
                other => panic!("expected Io, got {other:?}"),
            }
        }
    }

    /// The reader this module had before it parsed bytes — one `String`
    /// per line, `str::trim` / `split_whitespace` / `str::parse` — kept as
    /// the oracle for what every ASCII input must still mean.
    fn read_coo_by_lines(text: &str) -> Result<CooTensor> {
        let mut lines = text.lines();
        let header = lines.next().ok_or_else(|| TensorError::Parse("empty input".into()))?;
        let shape = parse_header(header)?;
        let mut t = CooTensor::try_new(shape.clone())?;
        for line in lines.map(str::trim).filter(|l| !l.is_empty() && !l.starts_with('#')) {
            let bad = || TensorError::Parse(format!("bad line: {line}"));
            let mut parts = line.split_whitespace();
            let idx: Vec<usize> = shape
                .iter()
                .map(|_| parts.next().and_then(|p| p.parse().ok()).ok_or_else(bad))
                .collect::<Result<_>>()?;
            let v: f64 = parts.next().and_then(|p| p.parse().ok()).ok_or_else(bad)?;
            if parts.next().is_some() {
                return Err(bad());
            }
            t.push(&idx, v)?;
        }
        Ok(t)
    }

    #[test]
    fn reader_table() {
        let two = |a: (&[usize], f64), b: (&[usize], f64)| {
            CooTensor::from_entries(vec![3, 4], &[a, b]).unwrap()
        };
        let want = two((&[0, 1], 1.5), (&[2, 3], -0.25));
        let same_as_want: &[&str] = &[
            "# shape: 3 4\n0 1 1.5\n2 3 -0.25\n",
            "# shape: 3 4\r\n0 1 1.5\r\n2 3 -0.25\r\n",           // CRLF
            "# shape: 3 4\n0\t1\t1.5\n\t2 \t 3\t-0.25 \n",          // tabs, padding
            "# shape: 3 4\n+0 +1 +1.5\n2 3 -0.25",                   // leading +, no final newline
            "# shape: 3 4\n\n# note\n  # indented note\n0 1 1.5\n \t\r\n2 3 -0.25\n", // blanks, comments
            "# shape:  3\t4 \n00 001 15e-1\n2 3 -.25\n",            // header spacing, zeros, float forms
            "# shape: 3 4\n0\x0b1\x0c1.5\n2 3 -0.25\n",              // every ASCII white space separates
        ];
        for text in same_as_want {
            assert_eq!(read_coo(text.as_bytes()).unwrap(), want, "{text:?}");
            assert_eq!(read_coo_by_lines(text).unwrap(), want, "oracle on {text:?}");
        }
        let parse_errors: &[&[u8]] = &[
            b"# shape: 3 4\n0 99999999999999999999999 1.0\n", // index past usize
            b"# shape: 3 4\n0 18446744073709551616 1.0\n",    // 2^64 exactly
            b"# shape: 3 4\n0 -1 1.0\n",
            b"# shape: 3 4\n0 + 1.0\n",
            b"# shape: 3 4\n0 1x 1.0\n",
            b"# shape: 3 4\n0 1 1.0.0\n",
            b"# shape: 3 4\n0 1\n",
            b"# shape: 3 4\n0 1 1.0 7\n",
            b"# shape: 3 4\n0 1 1.0 # note\n",
            b"# shape: 3 4\n0 \xff 1.0\n",                      // a non-UTF-8 byte in an index
            b"# shape: 3 4\n0 1 1.\xc3\n",                       // … and in a value
            b"# shape: 3 \xff\n",                                // … and in the header
            b"# shape: 3 4\n0\xc2\xa01 1.0\n",                   // U+00A0 is not a separator here
            b"# shape:\n",
            b"# shape: 3 x\n",
            b"shape: 3 4\n",
            b"",
        ];
        for bytes in parse_errors {
            let err = read_coo(*bytes).unwrap_err();
            assert!(matches!(err, TensorError::Parse(_)), "{:?}: {err:?}", String::from_utf8_lossy(bytes));
        }
        // The largest index a usize holds parses; the tensor then rejects
        // it by its bounds, not the parser.
        let max = format!("# shape: 3 4\n0 {} 1.0\n", usize::MAX);
        assert!(matches!(read_coo(max.as_bytes()), Err(TensorError::IndexOutOfBounds { .. })));
        assert!(matches!(read_coo("# shape: 3 0\n".as_bytes()), Err(TensorError::InvalidShape { .. })));
        // Non-finite and signed-zero values are whatever `str::parse` says.
        let t = read_coo("# shape: 3 4\n0 0 inf\n0 1 NaN\n0 2 -0\n".as_bytes()).unwrap();
        assert!(t.value(0).is_infinite() && t.value(1).is_nan() && t.value(2).is_sign_negative());
        // A source that fails mid-file is `Io`, whatever it had delivered.
        struct Failing(usize);
        impl Read for Failing {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                let text = b"# shape: 3 4\n0 1 1.5\n";
                if self.0 >= text.len() {
                    return Err(std::io::Error::other("disk on fire"));
                }
                let n = buf.len().min(text.len() - self.0).min(5);
                buf[..n].copy_from_slice(&text[self.0..self.0 + n]);
                self.0 += n;
                Ok(n)
            }
        }
        match read_coo(Failing(0)).unwrap_err() {
            TensorError::Io(msg) => assert!(msg.contains("disk on fire"), "{msg}"),
            other => panic!("expected Io, got {other:?}"),
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// Any bytes are a value or a typed error, never a panic; and text
        /// drawn from the characters entry lines are made of (and the
        /// ones that break them) means exactly what it meant to the
        /// line-by-line reader.
        #[test]
        fn reader_never_panics_and_keeps_the_grammar(
            picks in proptest::collection::vec(0usize..24, 0..60),
            raw in proptest::collection::vec(0usize..256, 0..40),
        ) {
            const ALPHABET: &[u8; 24] = b"0123 \t\n\n\r\x0b+-.e#x 1 2 0\n9";
            let body: Vec<u8> = picks.iter().map(|&i| ALPHABET[i]).collect();
            let mut text = b"# shape: 3 4\n".to_vec();
            text.extend_from_slice(&body);
            let got = read_coo(&text[..]);
            let want = read_coo_by_lines(std::str::from_utf8(&text).unwrap());
            match (&got, &want) {
                // NaN values never compare equal; compare by bits.
                (Ok(a), Ok(b)) => {
                    proptest::prop_assert_eq!(a.shape(), b.shape());
                    let bits = |t: &CooTensor| t.values().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                    proptest::prop_assert_eq!(bits(a), bits(b));
                    proptest::prop_assert!(a.iter().zip(b.iter()).all(|(x, y)| x.0 == y.0));
                }
                (Err(a), Err(b)) => proptest::prop_assert_eq!(
                    std::mem::discriminant(a),
                    std::mem::discriminant(b)
                ),
                _ => proptest::prop_assert!(false, "{:?} vs {:?} on {:?}", got, want, text),
            }
            // Arbitrary bytes, header included: only the absence of a
            // panic (and of `Io`: a slice never fails to read) is claimed.
            let noise: Vec<u8> = raw.iter().map(|&b| b as u8).collect();
            for input in [noise.clone(), [&b"# shape: 2 2\n"[..], &noise].concat()] {
                if let Err(e) = read_coo(&input[..]) {
                    proptest::prop_assert!(!matches!(e, TensorError::Io(_)), "{:?}", e);
                }
            }
        }
    }

    #[test]
    fn out_of_bounds_entry_rejected() {
        assert!(read_coo("# shape: 2 2\n5 0 1.0\n".as_bytes()).is_err());
    }

    #[test]
    fn kruskal_round_trip_is_lossless() {
        let k = crate::KruskalTensor::random(&[4, 3, 5], 2, 9);
        let mut buf = Vec::new();
        write_kruskal(&k, &mut buf).unwrap();
        let back = read_kruskal(&buf[..]).unwrap();
        assert_eq!(back.shape(), k.shape());
        assert_eq!(back.rank(), k.rank());
        for (a, b) in back.factors().iter().zip(k.factors()) {
            assert_eq!(a, b, "f64 round-trip must be exact");
        }
    }

    #[test]
    fn kruskal_malformed_rejected() {
        assert!(read_kruskal("nope\n".as_bytes()).is_err());
        assert!(read_kruskal("# kruskal: 2 2\n".as_bytes()).is_err()); // no factors
        // Wrong value count in a factor body.
        let bad = "# kruskal: 1 2\n# factor 0: 2 2\n1.0 2.0 3.0\n";
        assert!(read_kruskal(bad.as_bytes()).is_err());
        // Data before any factor header.
        assert!(read_kruskal("# kruskal: 1 1\n1.0\n".as_bytes()).is_err());
    }

    #[test]
    fn hostile_kruskal_counts_are_parse_errors() {
        // Each count sized an allocation or overflowed a product before
        // a single value was read: a terabyte factor, a petabyte factor
        // list, and `rows × cols` past `usize::MAX` (the last one with
        // `cols` equal to the rank, so the product is formed).
        for text in [
            "# kruskal: 1 2\n# factor 0: 1000000000000 2\n",
            "# kruskal: 100000000000000 2\n",
            "# kruskal: 1 2\n# factor 0: 4294967296 4294967297\n",
            "# kruskal: 1 4294967297\n# factor 0: 4294967296 4294967297\n",
            // Well-formed bodies under mode numbers that are not 0, 1: a
            // repeated header, an out-of-order pair, a skipped mode and a
            // missing number.
            "# kruskal: 2 1\n# factor 7: 1 1\n2\n# factor 7: 2 1\n3\n4\n",
            "# kruskal: 2 1\n# factor 1: 1 1\n2\n# factor 0: 2 1\n3\n4\n",
            "# kruskal: 2 1\n# factor 0: 1 1\n2\n# factor 2: 2 1\n3\n4\n",
            "# kruskal: 2 1\n# factor: 1 1\n2\n# factor 1: 2 1\n3\n4\n",
        ] {
            let err = read_kruskal(text.as_bytes()).unwrap_err();
            assert!(matches!(err, TensorError::Parse(_)), "{text:?}: {err:?}");
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// Any sequence of header and body tokens, counts up to
        /// `usize::MAX` included, and any bytes after a header are a
        /// model or a typed error, never a panic.
        #[test]
        fn kruskal_reader_never_panics(
            picks in proptest::collection::vec(0usize..16, 0..40),
            raw in proptest::collection::vec(0usize..256, 0..40),
        ) {
            const TOKENS: [&str; 16] = [
                "# kruskal:", "# factor 0:", "# factor", " ", "\n", "0", "1", "2",
                "4294967297", "18446744073709551615", "1.5", "-0.25", "1e308", "nan", ":", "x",
            ];
            let text: String = picks.iter().map(|&i| TOKENS[i]).collect();
            let noise: Vec<u8> = raw.iter().map(|&b| b as u8).collect();
            for input in [
                text.clone().into_bytes(),
                ["# kruskal: 1 2\n", &text].concat().into_bytes(),
                [&b"# kruskal: 2 1\n# factor 0: 1 1\n"[..], &noise].concat(),
            ] {
                if let Ok(k) = read_kruskal(&input[..]) {
                    proptest::prop_assert!(k.factors().iter().all(|f| f.cols() == k.rank()));
                }
            }
        }
    }
}
