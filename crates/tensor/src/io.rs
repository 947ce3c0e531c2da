//! Plain-text COO serialization.
//!
//! Format: a header line `# shape: d1 d2 ... dN`, then one entry per line
//! as `i1 i2 ... iN value` (0-based indices, whitespace-separated). This is
//! the format the examples and the bench harness use to exchange tensors.
//!
//! Both directions run on the host's threads, and neither holds the whole
//! text. The reader takes the source one block of whole lines at a time
//! (at most one block of text, or one line when a line is longer), cuts
//! the block at newlines into one sub-range per thread, counts each
//! sub-range's entry lines, reserves the tensor's storage for the block,
//! and has every sub-range parse into its own slice of it: workers
//! allocate nothing. The writer formats runs of entries into one byte
//! buffer per thread and writes the buffers in entry order. Neither
//! changes a byte or a bit with the thread count: the same text is the
//! same tensor, the same tensor the same text.

use crate::coo::CooTensor;
use crate::{Result, TensorError};
use distenc_dataflow::{ExecMode, Executor};
use std::io::{BufWriter, Read, Write};
use std::mem::MaybeUninit;
use std::path::Path;

/// Bytes of text the reader takes from its source at a time.
const BLOCK: usize = 1 << 20;
/// Fewest bytes of a block worth a thread of their own: smaller blocks
/// are cut into fewer sub-ranges, and one sub-range runs on the caller.
const MIN_RANGE: usize = 32 << 10;
/// Entries the writer formats into one buffer before writing it.
const RUN: usize = 8192;

/// Threads `mode` can run at once on this host: the executor's
/// [`Executor::parallelism`], known before any pool is spawned.
fn parallelism(mode: ExecMode) -> usize {
    let host = std::thread::available_parallelism().map_or(1, |n| n.get());
    mode.threads().min(host)
}

/// Apply `f` to every item: on the caller when there is one item, else on
/// the executor `mode` builds the first time one is needed.
fn each<T: Send>(
    exec: &mut Option<Executor>,
    mode: ExecMode,
    items: &mut [T],
    f: impl Fn(usize, &mut T) + Sync,
) {
    if items.len() <= 1 {
        items.iter_mut().enumerate().for_each(|(i, item)| f(i, item));
    } else {
        exec.get_or_insert_with(|| Executor::new(mode)).run_mut(items, f);
    }
}

/// Write a tensor as text, on the threads `ExecMode::default()` names.
pub fn write_coo<W: Write>(t: &CooTensor, w: W) -> std::io::Result<()> {
    let mode = ExecMode::default();
    write_coo_cut(t, w, mode, RUN, parallelism(mode))
}

/// [`write_coo`] with `parts` buffers of `run` entries each formatted at
/// a time on `mode`; the bytes are the same for every `run` and `parts`.
fn write_coo_cut<W: Write>(
    t: &CooTensor,
    mut w: W,
    mode: ExecMode,
    run: usize,
    parts: usize,
) -> std::io::Result<()> {
    let mut head = b"# shape:".to_vec();
    for &d in t.shape() {
        head.push(b' ');
        push_usize(&mut head, d);
    }
    head.push(b'\n');
    w.write_all(&head)?;
    let nnz = t.nnz();
    let width = parts.clamp(1, nnz.div_ceil(run).max(1));
    let mut bufs = vec![Vec::new(); width];
    let mut exec = None;
    for first in (0..nnz).step_by(run * width) {
        let bufs = &mut bufs[..(nnz - first).div_ceil(run).min(width)];
        each(&mut exec, mode, bufs, |k, buf| {
            // Format through a `Vec` header on this thread's stack: the
            // buffers' headers share a cache line, and each push writes
            // its length.
            let mut out = std::mem::take(buf);
            out.clear();
            let start = first + k * run;
            for e in start..(start + run).min(nnz) {
                for &i in t.index(e) {
                    push_usize(&mut out, i);
                    out.push(b' ');
                }
                write!(out, "{}", t.value(e)).expect("a Vec takes every byte");
                out.push(b'\n');
            }
            *buf = out;
        });
        for buf in bufs.iter() {
            w.write_all(buf)?;
        }
    }
    w.flush()
}

/// `{n}` for a `usize`, without the formatter.
fn push_usize(out: &mut Vec<u8>, mut n: usize) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.extend_from_slice(&digits[at..]);
}

/// Write a tensor to a file path.
pub fn write_coo_file<P: AsRef<Path>>(t: &CooTensor, path: P) -> std::io::Result<()> {
    write_coo(t, std::fs::File::create(path)?)
}

/// Parse a tensor from text, on the threads `ExecMode::default()` names.
///
/// Fields are separated by ASCII whitespace (CRLF line ends included);
/// blank lines and lines starting with `#` are skipped. Anything else
/// that is not `N` in-range indices and one value — a non-UTF-8 byte, an
/// index past `usize`, a trailing field — is a typed
/// [`TensorError::Parse`] naming its 1-based line (bounds:
/// [`TensorError::IndexOutOfBounds`]); a failing reader is
/// [`TensorError::Io`]. Of several bad lines, the first in the file is
/// the one reported. Values go through `str::parse::<f64>`, so every
/// value keeps its bits.
pub fn read_coo<R: Read>(r: R) -> Result<CooTensor> {
    read_coo_on(r, None, ExecMode::default())
}

/// [`read_coo`] of a source of `size` bytes, if known, on the threads
/// `mode` names: the same tensor, bit for bit, on every mode.
fn read_coo_on<R: Read>(r: R, size: Option<u64>, mode: ExecMode) -> Result<CooTensor> {
    let cut = Cut { block: BLOCK, min_range: MIN_RANGE, parts: parallelism(mode) };
    read_coo_cut(r, size, mode, cut)
}

/// How the reader cuts its input: `block` bytes read at a time, each
/// block's whole lines cut into at most `parts` sub-ranges of at least
/// `min_range` bytes.
#[derive(Debug, Clone, Copy)]
struct Cut {
    block: usize,
    min_range: usize,
    parts: usize,
}

/// The one reader body, whatever the cut. A known `size` sizes the
/// tensor's storage once, from the first block's entries per byte.
fn read_coo_cut<R: Read>(r: R, size: Option<u64>, mode: ExecMode, cut: Cut) -> Result<CooTensor> {
    let mut blocks = Blocks::new(r, cut.block);
    let first = blocks.next()?.ok_or_else(|| TensorError::Parse("empty input".into()))?;
    let header_end = first.iter().position(|&b| b == b'\n').map_or(first.len(), |p| p + 1);
    let header = std::str::from_utf8(&first[..header_end])
        .map_err(|e| TensorError::Parse(format!("bad header: {e}")))?;
    let shape = parse_header(header.trim_end_matches(['\n', '\r']))?;
    let mut t = CooTensor::try_new(shape.clone())?;
    let unread = size.map(|s| s.saturating_sub(header_end as u64));
    let mut entries =
        Entries { shape, cut, mode, exec: None, ranges: Vec::new(), next_line: 2, unread };
    entries.append(&mut t, &first[header_end..])?;
    while let Some(text) = blocks.next()? {
        entries.append(&mut t, text)?;
    }
    Ok(t)
}

/// A source read in blocks of whole lines.
struct Blocks<R> {
    src: R,
    /// `block` bytes, or more while one line is longer than that.
    buf: Vec<u8>,
    /// Bytes of `buf` read from `src`.
    len: usize,
    /// Bytes of `buf` handed out by the last [`Blocks::next`].
    taken: usize,
    eof: bool,
    /// A read that failed after the last newline read before it: the
    /// whole lines before it are handed out first.
    failed: Option<std::io::Error>,
}

impl<R: Read> Blocks<R> {
    fn new(src: R, block: usize) -> Self {
        Blocks { src, buf: vec![0; block.max(1)], len: 0, taken: 0, eof: false, failed: None }
    }

    /// The next run of whole lines, through the last `\n` read (or to the
    /// end of the source, where the last line needs none); `None` once
    /// the source is spent.
    fn next(&mut self) -> Result<Option<&[u8]>> {
        self.buf.copy_within(self.taken..self.len, 0);
        self.len -= self.taken;
        self.taken = 0;
        loop {
            while !self.eof && self.failed.is_none() && self.len < self.buf.len() {
                match self.src.read(&mut self.buf[self.len..]) {
                    Ok(0) => self.eof = true,
                    Ok(n) => self.len += n,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                    Err(e) => self.failed = Some(e),
                }
            }
            if let Some(last) = self.buf[..self.len].iter().rposition(|&b| b == b'\n') {
                self.taken = last + 1;
            } else if let Some(e) = self.failed.take() {
                return Err(TensorError::Io(e.to_string()));
            } else if self.eof {
                self.taken = self.len;
            } else {
                // One line is longer than the buffer: make room for more.
                self.buf.resize(2 * self.buf.len(), 0);
                continue;
            }
            return Ok((self.taken > 0).then(|| &self.buf[..self.taken]));
        }
    }
}

/// The entry lines of one tensor's text, appended block by block.
struct Entries {
    shape: Vec<usize>,
    cut: Cut,
    mode: ExecMode,
    /// Spawned the first time a block is cut into more than one range.
    exec: Option<Executor>,
    /// One block's sub-ranges, reused for the next block.
    ranges: Vec<Range>,
    /// 1-based number of the next block's first line.
    next_line: usize,
    /// Bytes of the source past the header, until the first block with
    /// entries has sized the storage from them.
    unread: Option<u64>,
}

/// One sub-range of a block and what the two passes over it found.
#[derive(Debug)]
struct Range {
    bytes: std::ops::Range<usize>,
    /// Entry lines in `bytes`, and lines ended by a `\n`.
    entries: usize,
    lines: usize,
    /// Position of the range's first entry in the block's, and the
    /// number of its first line in the file.
    first_entry: usize,
    first_line: usize,
    /// Its first bad line, if it has one.
    err: Option<TensorError>,
}

/// The uninitialised slots of one block's entries, shared by the threads
/// that each fill the disjoint part one [`Range`] names.
struct Slots {
    idx: *mut MaybeUninit<usize>,
    val: *mut MaybeUninit<f64>,
}

// SAFETY: the pointers are only turned into slices for disjoint ranges of
// entries, each by the one thread the executor hands that range to.
unsafe impl Sync for Slots {}

impl Entries {
    /// Parse `text`, whole lines, into `t`: count each sub-range's entry
    /// lines, reserve the block's storage, parse each sub-range into its
    /// part of it. A bad line leaves `t` as it was.
    fn append(&mut self, t: &mut CooTensor, text: &[u8]) -> Result<()> {
        cut_ranges(text, self.cut, &mut self.ranges);
        each(&mut self.exec, self.mode, &mut self.ranges, |_, r| {
            (r.entries, r.lines) = count_lines(&text[r.bytes.clone()]);
        });
        let (mut entries, mut line) = (0, self.next_line);
        for r in &mut self.ranges {
            (r.first_entry, r.first_line) = (entries, line);
            entries += r.entries;
            line += r.lines;
        }
        self.next_line = line;
        let (shape, exec, mode, ranges) = (&self.shape, &mut self.exec, self.mode, &mut self.ranges);
        let order = shape.len();
        let fill = |idx: &mut [MaybeUninit<usize>], val: &mut [MaybeUninit<f64>]| {
            let slots = Slots { idx: idx.as_mut_ptr(), val: val.as_mut_ptr() };
            each(exec, mode, ranges, |_, r| {
                // SAFETY: the ranges' entry spans are consecutive and
                // within the `entries` slots handed to `fill`, and each
                // range is handed to exactly one thread.
                let (idx, val) = unsafe {
                    let slots = &slots;
                    (
                        std::slice::from_raw_parts_mut(
                            slots.idx.add(r.first_entry * order),
                            r.entries * order,
                        ),
                        std::slice::from_raw_parts_mut(slots.val.add(r.first_entry), r.entries),
                    )
                };
                r.err = parse_range(&text[r.bytes.clone()], shape, r.first_line, idx, val).err();
            });
            ranges.iter_mut().find_map(|r| r.err.take()).map_or(Ok(()), Err)
        };
        // SAFETY: on `Ok` every range parsed all its entries, each index
        // checked against its mode (`parse_range` asserts the count), and
        // the ranges' entries cover the `entries` slots.
        unsafe { t.append_in_place(entries, fill)? };
        if let Some(unread) = self.unread.filter(|_| entries > 0) {
            // The rest of the source holds about as many entries per byte
            // as the first block that parsed: room for them all (and 1/32
            // more) at once, where growing block by block would double
            // the storage.
            let rest = entries as u128 * u128::from(unread) / text.len() as u128;
            let rest = usize::try_from(rest).unwrap_or(usize::MAX).saturating_sub(entries);
            t.reserve_exact(rest.saturating_add(rest / 32));
            self.unread = None;
        }
        Ok(())
    }
}

/// Cut `text`, whole lines, into at most `cut.parts` sub-ranges of near
/// equal size and at least `cut.min_range` bytes, each ending after a
/// `\n` (the last at the end of `text`).
fn cut_ranges(text: &[u8], cut: Cut, ranges: &mut Vec<Range>) {
    let parts = cut.parts.min(text.len() / cut.min_range.max(1)).max(1);
    ranges.clear();
    let mut start = 0;
    for k in 1..=parts {
        let end = if k == parts {
            text.len()
        } else {
            let aim = (text.len() * k / parts).max(start);
            text[aim..].iter().position(|&b| b == b'\n').map_or(text.len(), |p| aim + p + 1)
        };
        ranges.push(Range {
            bytes: start..end,
            entries: 0,
            lines: 0,
            first_entry: 0,
            first_line: 0,
            err: None,
        });
        start = end;
    }
}

/// The ASCII members of `char::is_whitespace`: space and `\t`..=`\r`.
fn is_space(b: u8) -> bool {
    matches!(b, b' ' | b'\t'..=b'\r')
}

/// Past the white space at `at` that does not end the line.
fn skip_blanks(text: &[u8], mut at: usize) -> usize {
    while text.get(at).is_some_and(|&b| b != b'\n' && is_space(b)) {
        at += 1;
    }
    at
}

/// The position of the first `\n` at or after `at`, or `text.len()`:
/// eight bytes at a time, by the zero-byte test on the word XOR `\n`s
/// (the lowest flagged byte is always a true zero).
fn newline_from(text: &[u8], mut at: usize) -> usize {
    const ONES: u64 = u64::from_le_bytes([1; 8]);
    const HIGHS: u64 = ONES << 7;
    while let Some(word) = text.get(at..at + 8) {
        let w = u64::from_le_bytes(word.try_into().expect("eight bytes")) ^ (ONES * u64::from(b'\n'));
        let zeros = w.wrapping_sub(ONES) & !w & HIGHS;
        if zeros != 0 {
            return at + (zeros.trailing_zeros() / 8) as usize;
        }
        at += 8;
    }
    text[at..].iter().position(|&b| b == b'\n').map_or(text.len(), |p| at + p)
}

/// The first pass: `(entry lines, lines ended by a \n)` in `text`. A line
/// is an entry line when its first field does not start with `#`.
fn count_lines(text: &[u8]) -> (usize, usize) {
    let (mut entries, mut lines) = (0, 0);
    let mut at = 0;
    while at < text.len() {
        at = skip_blanks(text, at);
        let Some(&first) = text.get(at) else { break };
        entries += usize::from(first != b'\n' && first != b'#');
        at = newline_from(text, at) + 1;
        lines += usize::from(at <= text.len());
    }
    (entries, lines)
}

/// The second pass: every entry line of `text`, whose first line is line
/// `first_line` of the file, into `idx` and `val` (sized by the first
/// pass). The first bad line is the error.
fn parse_range(
    text: &[u8],
    shape: &[usize],
    first_line: usize,
    idx: &mut [MaybeUninit<usize>],
    val: &mut [MaybeUninit<f64>],
) -> Result<()> {
    let order = shape.len();
    let (mut at, mut line, mut e) = (0, first_line, 0);
    while at < text.len() {
        let start = skip_blanks(text, at);
        let Some(&first) = text.get(start) else { break };
        let end = newline_from(text, start);
        if first != b'\n' && first != b'#' {
            let slots = &mut idx[e * order..(e + 1) * order];
            let (v, in_bounds) = parse_entry(&text[start..end], slots, shape)
                .map_err(|what| bad_line(&text[at..end], line, what))?;
            if !in_bounds {
                return Err(out_of_bounds(&text[at..end], shape));
            }
            val[e].write(v);
            e += 1;
        }
        at = end + 1;
        line += 1;
    }
    assert_eq!(e, val.len(), "the two passes count the same entry lines");
    Ok(())
}

/// One entry line, from its first field to its `\n` (excluded): `N`
/// indices (an optional `+`, then decimal digits, accumulated as they are
/// scanned) and one value, then nothing but white space. Returns the
/// value and whether every index is within `shape`, or what is wrong with
/// the line.
fn parse_entry(
    line: &[u8],
    slots: &mut [MaybeUninit<usize>],
    shape: &[usize],
) -> std::result::Result<(f64, bool), &'static str> {
    const BAD: &str = "bad entry line";
    let mut i = 0;
    let mut in_bounds = true;
    let len = line.len();
    for (slot, &dim) in slots.iter_mut().zip(shape) {
        if i < len && line[i] == b'+' {
            i += 1;
        }
        let digits = i;
        let mut n = 0usize;
        while i < len {
            let d = line[i].wrapping_sub(b'0');
            if d > 9 {
                break;
            }
            n = n.wrapping_mul(10).wrapping_add(usize::from(d));
            i += 1;
        }
        if i == digits || (i < len && !is_space(line[i])) {
            return Err(BAD);
        }
        // `usize::MAX.ilog10()` digits always fit a usize; more may not.
        if i - digits > usize::MAX.ilog10() as usize {
            n = parse_index(&line[digits..i]).ok_or(BAD)?;
        }
        slot.write(n);
        in_bounds &= n < dim;
        while i < len && is_space(line[i]) {
            i += 1;
        }
    }
    // The value is the rest of the line without its trailing white
    // space: `str::parse` takes no white space, so a second field in it
    // fails the parse. It takes nothing but ASCII either, so a field
    // that is not ASCII fails without being read as UTF-8.
    let mut end = len;
    while end > i && is_space(line[end - 1]) {
        end -= 1;
    }
    let parse = |field: &[u8]| -> Option<f64> {
        // SAFETY: ASCII bytes are UTF-8.
        field.is_ascii().then(|| unsafe { std::str::from_utf8_unchecked(field) })?.parse().ok()
    };
    match parse(&line[i..end]) {
        Some(v) => Ok((v, in_bounds)),
        None => {
            let first = line[i..end].split(|&b| is_space(b)).next().unwrap_or_default();
            Err(if first.len() < end - i && parse(first).is_some() {
                "trailing fields in line"
            } else {
                "bad value in line"
            })
        }
    }
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

/// `TensorError::Parse` for `text`, the bad line `line` of the file.
fn bad_line(text: &[u8], line: usize, what: &str) -> TensorError {
    let shown = String::from_utf8_lossy(text);
    TensorError::Parse(format!("line {line}: {what}: {}", shown.trim()))
}

/// `TensorError::IndexOutOfBounds` for `text`, a well-formed entry line.
fn out_of_bounds(text: &[u8], shape: &[usize]) -> TensorError {
    let index = text
        .split(|&b| is_space(b))
        .filter(|f| !f.is_empty())
        .take(shape.len())
        .map(|f| parse_index(f).expect("the line parsed"))
        .collect();
    TensorError::IndexOutOfBounds { index, shape: shape.to_vec() }
}

/// Read a tensor from a file path.
pub fn read_coo_file<P: AsRef<Path>>(path: P) -> Result<CooTensor> {
    read_coo_file_on(path, ExecMode::default())
}

/// [`read_coo_file`] on the threads `mode` names (the CLI's `--threads`):
/// the same tensor, bit for bit, on every mode.
pub fn read_coo_file_on<P: AsRef<Path>>(path: P, mode: ExecMode) -> Result<CooTensor> {
    let file = open(path.as_ref())?;
    let size = file.metadata().ok().map(|m| m.len());
    read_coo_on(file, size, mode)
}

/// Write a CP model as text: a header `# kruskal: N R`, then one factor
/// matrix per `# factor <n>: <rows> <cols>` section, row per line. Each
/// row is formatted into one reused buffer and written whole.
pub fn write_kruskal<W: Write>(k: &crate::KruskalTensor, w: W) -> std::io::Result<()> {
    let mut out = BufWriter::new(w);
    writeln!(out, "# kruskal: {} {}", k.order(), k.rank())?;
    let mut line = Vec::new();
    for (n, f) in k.factors().iter().enumerate() {
        writeln!(out, "# factor {n}: {} {}", f.rows(), f.cols())?;
        for i in 0..f.rows() {
            line.clear();
            for (j, v) in f.row(i).iter().enumerate() {
                if j > 0 {
                    line.push(b' ');
                }
                // 17 digits after the point: lossless f64 round-trip.
                write!(line, "{v:.17e}")?;
            }
            line.push(b'\n');
            out.write_all(&line)?;
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
/// The text is read in the blocks [`read_coo`] reads, each line parsed
/// where it lies in its block. The header counts are untrusted: nothing
/// is reserved from them, the buffers grow with the values that arrive,
/// and a factor whose `rows × cols` overflows or differs from its body is
/// a [`TensorError::Parse`]. So is a `# factor <n>:` header whose `n` is
/// not the number of factors before it: a repeated or out-of-order mode
/// never loads as some other mode's factor. So is a non-UTF-8 byte.
pub fn read_kruskal<R: Read>(r: R) -> Result<crate::KruskalTensor> {
    let mut blocks = Blocks::new(r, BLOCK);
    let mut model = KruskalText::default();
    while let Some(text) = blocks.next()? {
        for line in text.split_inclusive(|&b| b == b'\n') {
            model.line(line)?;
        }
    }
    model.finish()
}

/// A CP model's text, taken line by line.
#[derive(Default)]
struct KruskalText {
    /// `(order, rank)` from the header line, once it has been read.
    head: Option<(usize, usize)>,
    factors: Vec<distenc_linalg::Mat>,
    /// The factor whose body is being read: rows, cols, values so far.
    pending: Option<(usize, usize, Vec<f64>)>,
}

impl KruskalText {
    fn line(&mut self, raw: &[u8]) -> Result<()> {
        // A line ends at `\n`, or `\r\n`; the last one may end at neither.
        let raw = match raw.strip_suffix(b"\n") {
            Some(l) => l.strip_suffix(b"\r").unwrap_or(l),
            None => raw,
        };
        let line = std::str::from_utf8(raw)
            .map_err(|e| TensorError::Parse(format!("bad model text: {e}")))?;
        let Some((_, rank)) = self.head else {
            self.head = Some(parse_kruskal_header(line)?);
            return Ok(());
        };
        let line = line.trim();
        if line.is_empty() {
            return Ok(());
        }
        if let Some(rest) = line.strip_prefix("# factor") {
            if let Some((rows, cols, data)) = self.pending.take() {
                finish_factor(rows, cols, data, rank, &mut self.factors)?;
            }
            let (mode, dims) = rest
                .split_once(':')
                .ok_or_else(|| TensorError::Parse(format!("bad factor header: {line}")))?;
            if mode.trim().parse::<usize>().ok() != Some(self.factors.len()) {
                return Err(TensorError::Parse(format!(
                    "factor header {line:?} where factor {} belongs",
                    self.factors.len()
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
            self.pending = Some((rows, cols, Vec::new()));
            return Ok(());
        }
        let (_, _, data) = self
            .pending
            .as_mut()
            .ok_or_else(|| TensorError::Parse("data before factor header".into()))?;
        for tok in line.split_whitespace() {
            data.push(
                tok.parse()
                    .map_err(|e| TensorError::Parse(format!("bad value {tok}: {e}")))?,
            );
        }
        Ok(())
    }

    fn finish(mut self) -> Result<crate::KruskalTensor> {
        let (order, rank) = self.head.ok_or_else(|| TensorError::Parse("empty input".into()))?;
        if let Some((rows, cols, data)) = self.pending.take() {
            finish_factor(rows, cols, data, rank, &mut self.factors)?;
        }
        if self.factors.len() != order {
            return Err(TensorError::Parse(format!(
                "expected {order} factors, found {}",
                self.factors.len()
            )));
        }
        crate::KruskalTensor::new(self.factors)
    }
}

/// `# kruskal: N R` → `(N, R)`.
fn parse_kruskal_header(header: &str) -> Result<(usize, usize)> {
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
    Ok((order, rank))
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
            "# shape: 3 4\n0000000 00000001 1.5\n000000002 +0000000000000000000003 -0.25\n", // 7, 8, 9, 22 digits
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
            cut in (1usize..48, 0usize..6),
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
            // The same text through every cut of the one body: blocks from
            // one byte up, one, two and four sub-ranges, its size known
            // or not.
            let (block, parts) = (cut.0, [1, 2, 4][cut.1 % 3]);
            let size = (cut.1 < 3).then_some(text.len() as u64);
            let cut = Cut { block, min_range: 1, parts };
            let got = read_coo_cut(&text[..], size, mode_of(parts), cut);
            match (&got, &want) {
                (Ok(a), Ok(b)) => {
                    proptest::prop_assert_eq!(a.shape(), b.shape());
                    proptest::prop_assert_eq!(bits(a), bits(b));
                    proptest::prop_assert!(a.iter().zip(b.iter()).all(|(x, y)| x.0 == y.0));
                }
                (Err(a), Err(b)) => proptest::prop_assert_eq!(
                    std::mem::discriminant(a),
                    std::mem::discriminant(b)
                ),
                _ => proptest::prop_assert!(false, "{:?} vs {:?} on {:?} at {:?}", got, want, text, cut),
            }
            // … and the first bad line is the same line, cut or not.
            if let (Err(a), Err(b)) = (&got, &read_coo(&text[..])) {
                proptest::prop_assert_eq!(a, b);
            }
        }
    }

    /// `Threads(n)` for `n` sub-ranges, `Sequential` for one.
    fn mode_of(parts: usize) -> ExecMode {
        if parts == 1 {
            ExecMode::Sequential
        } else {
            ExecMode::Threads(parts)
        }
    }

    /// Every value's bits, in entry order.
    fn bits(t: &CooTensor) -> Vec<u64> {
        t.values().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn a_line_cut_by_a_block_means_what_it_means_whole() {
        // A CRLF, a `#` line and indented white space, then a bad line:
        // every block size from one byte past the whole text, so each of
        // them is split at every byte, and one, two and four sub-ranges.
        let good = "# shape: 3 4\r\n0 1 1.5\r\n# 0 0 not an entry\r\n \t2 3 -0.25\r\n\r\n1 0 7\n";
        let bad = format!("{good}2 2 x\n0 0 1\n");
        let whole = read_coo(good.as_bytes()).unwrap();
        assert_eq!(whole.nnz(), 3);
        let whole_err = read_coo(bad.as_bytes()).unwrap_err();
        assert!(whole_err.to_string().contains("line 7: bad value in line: 2 2 x"), "{whole_err}");
        for block in 1..=bad.len() + 1 {
            for parts in [1, 2, 4] {
                let cut = Cut { block, min_range: 1, parts };
                // The size only sizes the storage: unknown, right or wrong.
                let size = [None, Some(good.len() as u64), Some(3)][block % 3];
                let t = read_coo_cut(good.as_bytes(), size, mode_of(parts), cut).unwrap();
                assert_eq!(t, whole, "{cut:?}");
                let err = read_coo_cut(bad.as_bytes(), None, mode_of(parts), cut).unwrap_err();
                assert_eq!(err, whole_err, "{cut:?}");
            }
        }
    }

    #[test]
    fn a_parse_error_names_the_first_bad_line() {
        // 3000 entry lines cut into 4 KiB blocks of four sub-ranges: lines
        // 1001 and 2801 lie in different blocks and sub-ranges, and so do
        // 701 and 2001.
        let text_with = |bad: &[(usize, &str)]| -> String {
            let mut text = String::from("# shape: 50 60\n");
            for n in 2..=3001 {
                match bad.iter().find(|(at, _)| *at == n) {
                    Some((_, line)) => text.push_str(line),
                    None => text.push_str(&format!("{} {} {}.25", n % 50, n % 60, n)),
                }
                text.push('\n');
            }
            text
        };
        let cuts = [
            Cut { block: BLOCK, min_range: MIN_RANGE, parts: 1 },
            Cut { block: 4096, min_range: 64, parts: 4 },
            Cut { block: 4096, min_range: 64, parts: 2 },
        ];
        let two_parse = text_with(&[(1001, "1 2 3 4"), (2801, "1 x 3")]);
        let first_oob = text_with(&[(701, "50 0 1.0"), (2001, "1 2 nan nan")]);
        let last_oob = text_with(&[(701, "1 2 1e"), (2001, "0 60 1.0")]);
        for cut in cuts {
            for parts in [1, 2, 4] {
                let cut = Cut { parts: parts.min(cut.parts), ..cut };
                let read = |text: &str| {
                    let size = Some(text.len() as u64);
                    read_coo_cut(text.as_bytes(), size, mode_of(cut.parts), cut).unwrap_err()
                };
                let msg = read(&two_parse).to_string();
                assert_eq!(msg, "parse error: line 1001: trailing fields in line: 1 2 3 4", "{cut:?}");
                assert_eq!(
                    read(&first_oob),
                    TensorError::IndexOutOfBounds { index: vec![50, 0], shape: vec![50, 60] },
                    "{cut:?}"
                );
                let msg = read(&last_oob).to_string();
                assert_eq!(msg, "parse error: line 701: bad value in line: 1 2 1e", "{cut:?}");
            }
        }
        assert_eq!(text_with(&[]).lines().count(), 3001);
        assert_eq!(read_coo(text_with(&[]).as_bytes()).unwrap().nnz(), 3000);
    }

    /// The writer this module had before it formatted runs of entries on
    /// the executor — four `write!` calls per entry — kept as the oracle
    /// for its bytes.
    fn write_coo_by_fields(t: &CooTensor) -> Vec<u8> {
        let mut out = Vec::new();
        write!(out, "# shape:").unwrap();
        for d in t.shape() {
            write!(out, " {d}").unwrap();
        }
        writeln!(out).unwrap();
        for (idx, v) in t.iter() {
            for i in idx {
                write!(out, "{i} ").unwrap();
            }
            writeln!(out, "{v}").unwrap();
        }
        out
    }

    #[test]
    fn writer_bytes_are_the_field_writers_at_every_run() {
        let shape = vec![7, 1, usize::MAX];
        let values = [
            -0.0,
            0.0,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            5e-324,
            1.797_693_134_862_315_7e308,
            -1.5,
            0.1 + 0.2,
            1e21,
            123_456_789.0,
        ];
        let mut t = CooTensor::new(shape.clone());
        for (e, &v) in values.iter().enumerate() {
            t.push(&[e % 7, 0, [0, 9, usize::MAX - 1][e % 3]], v).unwrap();
        }
        t.push(&[6, 0, usize::MAX - 1], 2.5).unwrap();
        let want = write_coo_by_fields(&t);
        assert!(std::str::from_utf8(&want).unwrap().contains("6 0 18446744073709551614 2.5\n"));
        for run in 1..=t.nnz() + 1 {
            for parts in [1, 2, 4] {
                let mut got = Vec::new();
                write_coo_cut(&t, &mut got, mode_of(parts), run, parts).unwrap();
                assert_eq!(got, want, "run {run}, {parts} buffers");
            }
        }
        let mut got = Vec::new();
        write_coo(&t, &mut got).unwrap();
        assert_eq!(got, want);
        // No entries: the header alone.
        let empty = CooTensor::new(vec![2, 3]);
        let mut got = Vec::new();
        write_coo_cut(&empty, &mut got, ExecMode::Threads(2), 1, 2).unwrap();
        assert_eq!(got, write_coo_by_fields(&empty));
        assert_eq!(got, b"# shape: 2 3\n");
        // What it wrote reads back with every value's bits.
        let back = read_coo(&want[..]).unwrap();
        assert_eq!(back.shape(), t.shape());
        assert_eq!(bits(&back), bits(&t));
        assert!(back.iter().zip(t.iter()).all(|(x, y)| x.0 == y.0));
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
