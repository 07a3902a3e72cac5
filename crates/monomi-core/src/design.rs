//! Physical designs: which encryptions of which expressions the server stores.
//!
//! A [`PhysicalDesign`] is the output of MONOMI's designer (§6): for every
//! table, the set of source expressions (plain columns and per-row precomputed
//! expressions, §5.1) and the encryption schemes materialized for each. From a
//! design we derive the encrypted schema, encrypt and load data, and account
//! for server-side space (§8.4 / Table 2).
//!
//! The [`Encryptor`] pairs a design with the client's keys and owns the keyed
//! ciphers: one per ⟨table, source, scheme⟩, derived from the master key on
//! first use and cached in a slot found by the column's position in the
//! design. A [`ColumnCrypto`] is the handle to one column's slots; resolving
//! it ([`Encryptor::column`]) is the only by-name lookup, and what a caller
//! does per value — [`ColumnCrypto::encrypt_value`],
//! [`ColumnCrypto::decrypt_value`], the rows of
//! [`Encryptor::encrypt_database`], the decryptors of the `decrypt` module —
//! derives no key and formats no label. Decryption is fallible throughout:
//! ciphertexts come back from the untrusted server.

use crate::schemes::EncScheme;
use crate::CoreError;
use monomi_crypto::{
    CipherError, DetBytes, FormatPreservingCipher, MasterKey, OpeCipher, PaillierKey, RndCipher,
    SearchScheme,
};
use monomi_engine::{
    BoundExpr, ColumnDef, ColumnType, Database, NoSubqueries, RowSchema, TableSchema, Value,
};
use monomi_math::BigUint;
use monomi_sql::ast::{ColumnRef, Expr};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::OnceLock;

/// Bias added to date values before integer encryption so they are
/// non-negative.
const DATE_BIAS: i64 = 1 << 20;

/// Bit width of a packed homomorphic value slot (value bits).
pub const HOM_VALUE_BITS: u32 = 36;
/// Zero padding per slot so sums of up to 2^28 rows cannot overflow into the
/// next slot (the paper assumes ~2^27 rows).
pub const HOM_OVERFLOW_BITS: u32 = 28;

/// Design of one source expression within a table.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ColumnDesign {
    /// Base name used to derive encrypted column names (`<base>_<scheme>`).
    pub base_name: String,
    /// The plaintext expression this encrypted column stores. A bare column
    /// reference for ordinary columns; any row-local expression for per-row
    /// precomputation (§5.1).
    pub source: Expr,
    /// Logical type of the source expression.
    pub ty: ColumnType,
    /// Encryption schemes materialized for this source.
    pub schemes: std::collections::BTreeSet<EncScheme>,
    /// Opt this source's encrypted columns out of secondary-index builds.
    ///
    /// A DET index materializes the column's ciphertext equality classes and
    /// an OPE index its total order as sorted on-disk structures. Both are
    /// facts the ciphertexts already reveal to the server scheme-wise, but an
    /// index stores them *pre-extracted*; a cautious deployment can decline
    /// that (and the index's disk footprint) per column, at the cost of
    /// falling back to zone-map scans. Defaults to indexed.
    #[serde(default)]
    pub index_opt_out: bool,
}

impl ColumnDesign {
    /// True if this is a precomputed expression rather than a base column.
    pub fn is_precomputed(&self) -> bool {
        !matches!(self.source, Expr::Column(_))
    }

    /// The encrypted column name for a scheme.
    pub fn enc_name(&self, scheme: EncScheme) -> String {
        format!("{}_{}", self.base_name, scheme.suffix())
    }

    /// The weakest (most-revealing) scheme materialized, for the security
    /// summary of Table 3.
    pub fn weakest_scheme(&self) -> Option<EncScheme> {
        self.schemes
            .iter()
            .copied()
            .max_by_key(|s| s.strength_rank())
    }
}

/// Design of one table.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct TableDesign {
    pub table: String,
    pub columns: Vec<ColumnDesign>,
    /// Grouped homomorphic addition (§5.3): pack all HOM sources of this table
    /// into a single per-row Paillier ciphertext column.
    pub col_packing: bool,
    /// Multi-row packing (§5.2, "+Columnar agg"): pack several rows' HOM slots
    /// into one ciphertext. Reproduced in the space accounting and the I/O
    /// component of the cost model; see DESIGN.md for the substitution note.
    pub multirow_packing: bool,
}

impl TableDesign {
    /// Creates an empty design for a table.
    pub fn new(table: impl Into<String>) -> Self {
        TableDesign {
            table: table.into(),
            columns: Vec::new(),
            col_packing: false,
            multirow_packing: false,
        }
    }

    /// Finds the column design for a source expression.
    pub fn find_source(&self, source: &Expr) -> Option<&ColumnDesign> {
        self.columns.iter().find(|c| &c.source == source)
    }

    /// Position in `columns` of the column design with this base name.
    pub fn base_index(&self, base: &str) -> Option<usize> {
        self.columns.iter().position(|c| c.base_name == base)
    }

    /// Adds (or extends) a ⟨source, scheme⟩ pair; returns the base name.
    pub fn add(&mut self, source: Expr, ty: ColumnType, scheme: EncScheme) -> String {
        if let Some(c) = self.columns.iter_mut().find(|c| c.source == source) {
            c.schemes.insert(scheme);
            return c.base_name.clone();
        }
        let base_name = match &source {
            Expr::Column(c) => c.column.to_lowercase(),
            _ => format!(
                "precomp_{}",
                self.columns.iter().filter(|c| c.is_precomputed()).count()
            ),
        };
        let mut schemes = std::collections::BTreeSet::new();
        schemes.insert(scheme);
        self.columns.push(ColumnDesign {
            base_name: base_name.clone(),
            source,
            ty,
            schemes,
            index_opt_out: false,
        });
        base_name
    }

    /// Register-time index opt-out for one source (by base name); see
    /// [`ColumnDesign::index_opt_out`]. Returns false when the base is
    /// unknown.
    pub fn set_index_opt_out(&mut self, base: &str, opt_out: bool) -> bool {
        match self.columns.iter_mut().find(|c| c.base_name == base) {
            Some(cd) => {
                cd.index_opt_out = opt_out;
                true
            }
            None => false,
        }
    }

    /// Encrypted column names this table's design opts out of index builds:
    /// the DET and OPE materializations of every opted-out source (the other
    /// schemes never build indexes, so listing them would be noise).
    pub fn unindexed_columns(&self) -> Vec<String> {
        let mut out: Vec<String> = self
            .columns
            .iter()
            .filter(|cd| cd.index_opt_out)
            .flat_map(|cd| {
                cd.schemes
                    .iter()
                    .filter(|s| matches!(s, EncScheme::Det | EncScheme::Ope))
                    .map(|s| cd.enc_name(*s))
            })
            .collect();
        out.sort();
        out.dedup();
        out
    }

    /// Base names of HOM sources in slot order (for grouped packing).
    pub fn hom_slots(&self) -> Vec<String> {
        self.columns
            .iter()
            .filter(|c| c.schemes.contains(&EncScheme::Hom))
            .map(|c| c.base_name.clone())
            .collect()
    }

    /// Slot index of a HOM source when grouped packing is enabled.
    pub fn hom_slot_index(&self, base: &str) -> Option<usize> {
        self.hom_slots().iter().position(|b| b == base)
    }

    /// Name of the packed HOM group column.
    pub fn hom_group_column(&self) -> String {
        format!("{}_homgrp_hom", self.table)
    }
}

/// A full physical design.
#[derive(Clone, Debug, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct PhysicalDesign {
    pub tables: BTreeMap<String, TableDesign>,
    /// Paillier modulus size in bits used for this design.
    pub paillier_bits: usize,
}

impl PhysicalDesign {
    /// Creates an empty design with the given Paillier key size.
    pub fn new(paillier_bits: usize) -> Self {
        PhysicalDesign {
            tables: BTreeMap::new(),
            paillier_bits,
        }
    }

    /// The design for a table, creating it if needed.
    pub fn table_mut(&mut self, table: &str) -> &mut TableDesign {
        self.tables
            .entry(table.to_lowercase())
            .or_insert_with(|| TableDesign::new(table.to_lowercase()))
    }

    /// The design for a table.
    pub fn table(&self, table: &str) -> Option<&TableDesign> {
        self.tables.get(&table.to_lowercase())
    }

    /// Ensures every column of every table in the plaintext catalog is stored
    /// at least once (the paper: "MONOMI conservatively encrypts all data").
    /// Key-like and categorical integer/string/date columns default to DET;
    /// everything else defaults to RND.
    pub fn add_baseline_coverage(&mut self, plain: &Database) {
        for schema in plain.catalog().tables() {
            let tname = schema.name.to_lowercase();
            let schema = schema.clone();
            let td = self.table_mut(&tname);
            for col in &schema.columns {
                let source = Expr::Column(ColumnRef::new(col.name.to_lowercase()));
                let default_scheme = match col.ty {
                    ColumnType::Int | ColumnType::Date => EncScheme::Det,
                    ColumnType::Str if col.name.to_lowercase().contains("comment") => {
                        EncScheme::Rnd
                    }
                    ColumnType::Str => EncScheme::Det,
                    _ => EncScheme::Rnd,
                };
                match td.columns.iter_mut().find(|c| c.source == source) {
                    // Every base column must carry at least one scheme the
                    // client can decrypt, otherwise its values could never be
                    // fetched (OPE and SEARCH are one-way on the client side).
                    Some(existing) => {
                        if !existing.schemes.iter().any(|s| s.decryptable()) {
                            existing.schemes.insert(default_scheme);
                        }
                    }
                    None => {
                        td.add(source, col.ty, default_scheme);
                    }
                }
            }
        }
    }

    /// Total number of ⟨source, scheme⟩ pairs in the design.
    pub fn total_targets(&self) -> usize {
        self.tables
            .values()
            .map(|t| t.columns.iter().map(|c| c.schemes.len()).sum::<usize>())
            .sum()
    }

    /// Derives the encrypted server schema for this design.
    pub fn encrypted_schema(&self, paillier: &PaillierKey) -> Vec<TableSchema> {
        let mut out = Vec::new();
        for td in self.tables.values() {
            let mut cols = Vec::new();
            let mut has_hom = false;
            for cd in &td.columns {
                for scheme in &cd.schemes {
                    if *scheme == EncScheme::Hom && td.col_packing {
                        has_hom = true;
                        continue;
                    }
                    let ty = match (scheme, cd.ty) {
                        (
                            EncScheme::Det,
                            ColumnType::Int | ColumnType::Date | ColumnType::Float,
                        ) => ColumnType::Int,
                        (EncScheme::Det, _) => ColumnType::Bytes,
                        _ => ColumnType::Bytes,
                    };
                    cols.push(ColumnDef::new(cd.enc_name(*scheme), ty));
                }
            }
            if has_hom && !td.hom_slots().is_empty() {
                cols.push(ColumnDef::new(td.hom_group_column(), ColumnType::Bytes));
            }
            let _ = paillier;
            out.push(TableSchema::new(td.table.clone(), cols));
        }
        out
    }

    /// Analytic server space accounting in bytes, given the plaintext
    /// database the design will be applied to. Multi-row packing divides the
    /// HOM column footprint by the number of rows per ciphertext.
    pub fn storage_bytes(&self, plain: &Database, paillier: &PaillierKey) -> usize {
        let mut total = 0usize;
        for td in self.tables.values() {
            let table = match plain.table(&td.table) {
                Some(t) => t,
                None => continue,
            };
            let rows = table.row_count();
            let hom_ct_bytes = paillier.ciphertext_bytes();
            let hom_slots = td.hom_slots().len();
            for cd in &td.columns {
                let plain_width = match cd.ty {
                    ColumnType::Int => 8,
                    ColumnType::Float => 8,
                    ColumnType::Date => 4,
                    ColumnType::Str | ColumnType::Bytes => {
                        // Use the real average width of the underlying column if
                        // it is a base column; 24 bytes otherwise.
                        match &cd.source {
                            Expr::Column(c) => table
                                .schema()
                                .column_index(&c.column)
                                .map(|i| (table.column_size_bytes(i) / rows.max(1)).max(1))
                                .unwrap_or(24),
                            _ => 24,
                        }
                    }
                };
                for scheme in &cd.schemes {
                    let width = match scheme {
                        EncScheme::Det => match cd.ty {
                            ColumnType::Int | ColumnType::Date => 8,
                            _ => ((plain_width / 16) + 1) * 16,
                        },
                        EncScheme::Ope => 16,
                        EncScheme::Rnd => ((plain_width / 16) + 1) * 16 + 16,
                        EncScheme::Search => {
                            // roughly one 16-byte token per 6 characters of text
                            (plain_width / 6 + 1) * 16
                        }
                        EncScheme::Hom => {
                            if td.col_packing {
                                // Accounted once per table below.
                                0
                            } else {
                                hom_ct_bytes
                            }
                        }
                    };
                    total += width * rows;
                }
            }
            if td.col_packing && hom_slots > 0 {
                let slot_bits = (HOM_VALUE_BITS + HOM_OVERFLOW_BITS) as usize;
                let rows_per_ct = if td.multirow_packing {
                    (paillier.plaintext_bits() / (slot_bits * hom_slots)).max(1)
                } else {
                    1
                };
                total += (rows / rows_per_ct + 1) * hom_ct_bytes;
            }
        }
        total
    }

    /// Table 3 summary: per table, the number of columns whose weakest
    /// materialized scheme falls in each class. Returns
    /// `(strong, det, ope)` counts where `strong` covers RND/HOM/SEARCH.
    /// Precomputed columns are counted separately in the second tuple element.
    pub fn security_summary(&self) -> BTreeMap<String, SecuritySummary> {
        let mut out = BTreeMap::new();
        for td in self.tables.values() {
            let mut summary = SecuritySummary::default();
            for cd in &td.columns {
                let weakest = match cd.weakest_scheme() {
                    Some(w) => w,
                    None => continue,
                };
                let bucket = match weakest {
                    EncScheme::Rnd | EncScheme::Hom | EncScheme::Search => 0,
                    EncScheme::Det => 1,
                    EncScheme::Ope => 2,
                };
                if cd.is_precomputed() {
                    summary.precomputed[bucket] += 1;
                } else {
                    summary.base[bucket] += 1;
                }
            }
            out.insert(td.table.clone(), summary);
        }
        out
    }

    /// Per-table list of encrypted column names opted out of secondary-index
    /// builds — the shape [`create_table_with`](Database::create_table_with)
    /// and the wire protocol's `CreateTable` expect.
    pub fn unindexed_by_table(&self) -> BTreeMap<String, Vec<String>> {
        self.tables
            .values()
            .map(|td| (td.table.clone(), td.unindexed_columns()))
            .filter(|(_, cols)| !cols.is_empty())
            .collect()
    }

    /// The designer's storage/leakage surface of the encrypted access paths:
    /// per table, every `(encrypted column, scheme)` whose DET equality
    /// classes or OPE ordering *will* be pre-extracted into on-disk index
    /// files — i.e. indexable and not opted out. The ciphertexts already
    /// reveal these facts scheme-wise; this names where they additionally
    /// sit materialized at rest, so a deployment can review and opt out.
    pub fn index_exposure(&self) -> BTreeMap<String, Vec<(String, EncScheme)>> {
        let mut out = BTreeMap::new();
        for td in self.tables.values() {
            let mut cols: Vec<(String, EncScheme)> = td
                .columns
                .iter()
                .filter(|cd| !cd.index_opt_out)
                .flat_map(|cd| {
                    cd.schemes
                        .iter()
                        .filter(|s| matches!(s, EncScheme::Det | EncScheme::Ope))
                        .map(|s| (cd.enc_name(*s), *s))
                })
                .collect();
            if cols.is_empty() {
                continue;
            }
            cols.sort();
            out.insert(td.table.clone(), cols);
        }
        out
    }
}

/// Per-table count of columns at each weakest-scheme level (Table 3).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SecuritySummary {
    /// Base columns: `[strong (RND/HOM/SEARCH), DET, OPE]`.
    pub base: [usize; 3],
    /// Precomputed expression columns, same buckets.
    pub precomputed: [usize; 3],
}

/// The keyed ciphers of one source column. Each is derived from the master
/// key (an HMAC and an AES key expansion) the first time a value of the column
/// needs it and then shared: `OnceLock` makes the later reads a load.
#[derive(Default)]
struct ColumnCiphers {
    det_int: OnceLock<FormatPreservingCipher>,
    det_bytes: OnceLock<DetBytes>,
    rnd: OnceLock<RndCipher>,
    ope: OnceLock<OpeCipher>,
    search: OnceLock<SearchScheme>,
}

/// Holds the keys and performs all value-level encryption and decryption for a
/// design. Lives only on the trusted client.
pub struct Encryptor {
    master: MasterKey,
    paillier: PaillierKey,
    design: PhysicalDesign,
    /// One slot set per source column, by position: `ciphers[t][c]` belongs
    /// to column `c` of the `t`-th table of `design.tables`.
    ciphers: Vec<Vec<ColumnCiphers>>,
}

/// One source column of an [`Encryptor`]'s design together with its keyed
/// ciphers: what every value-level operation goes through. Resolve it once
/// with [`Encryptor::column`] and use it for as many values as there are.
#[derive(Clone, Copy)]
pub struct ColumnCrypto<'a> {
    encryptor: &'a Encryptor,
    table: &'a str,
    design: &'a ColumnDesign,
    ciphers: &'a ColumnCiphers,
}

/// The decrypting half of one ⟨column, scheme⟩ pair with everything resolved:
/// the keyed cipher and the plaintext type to decode to.
#[derive(Clone, Copy)]
pub(crate) enum ValueDecryptor<'a> {
    DetInt(&'a FormatPreservingCipher, ColumnType),
    DetStr(&'a DetBytes),
    Rnd(&'a RndCipher),
    Hom(&'a PaillierKey, ColumnType),
}

impl Encryptor {
    /// Creates an encryptor with a deterministic RNG seed (reproducible
    /// experiments) for the given design.
    pub fn new(master: MasterKey, design: PhysicalDesign, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let paillier = PaillierKey::generate(&mut rng, design.paillier_bits.max(128));
        Self::with_keys(master, paillier, design)
    }

    /// Creates an encryptor reusing existing keys with a different design.
    /// The planner uses this to evaluate candidate designs without paying for
    /// Paillier key generation per candidate; no cipher is keyed until a value
    /// needs it.
    pub fn with_keys(master: MasterKey, paillier: PaillierKey, design: PhysicalDesign) -> Self {
        let ciphers = design
            .tables
            .values()
            .map(|td| {
                td.columns
                    .iter()
                    .map(|_| ColumnCiphers::default())
                    .collect()
            })
            .collect();
        Encryptor {
            master,
            paillier,
            design,
            ciphers,
        }
    }

    /// The Paillier key (the public part of which is shared with the server).
    pub fn paillier(&self) -> &PaillierKey {
        &self.paillier
    }

    /// The master key (never leaves the trusted client).
    pub fn master_key(&self) -> &MasterKey {
        &self.master
    }

    /// The key-derivation label used for DET encryption of a column.
    ///
    /// Foreign-key / primary-key columns (TPC-H naming convention: a one- or
    /// two-letter table prefix followed by a name ending in `key`) share a
    /// label so equi-joins over DET ciphertexts compare correctly — the
    /// adjustable-join simplification of CryptDB/MONOMI. All other columns use
    /// a per-table, per-column label.
    pub fn det_label(table: &str, base: &str) -> String {
        if let Some(idx) = base.find('_') {
            let suffix = &base[idx + 1..];
            if suffix.ends_with("key") && idx <= 2 {
                return format!("joinkey.{suffix}");
            }
        }
        format!("{table}.{base}")
    }

    /// The physical design in effect.
    pub fn design(&self) -> &PhysicalDesign {
        &self.design
    }

    /// The source column `base` of `table` with its keyed ciphers. This is
    /// the one place a column is looked up by name; callers with many values
    /// keep the handle.
    pub fn column(&self, table: &str, base: &str) -> Option<ColumnCrypto<'_>> {
        let key = table.to_lowercase();
        let (t, (name, td)) = self
            .design
            .tables
            .iter()
            .enumerate()
            .find(|(_, (name, _))| **name == key)?;
        Some(self.column_at(name, td, t, td.base_index(base)?))
    }

    fn column_at<'a>(
        &'a self,
        table: &'a str,
        td: &'a TableDesign,
        t: usize,
        c: usize,
    ) -> ColumnCrypto<'a> {
        ColumnCrypto {
            encryptor: self,
            table,
            design: &td.columns[c],
            ciphers: &self.ciphers[t][c],
        }
    }

    /// Builds the packed HOM group value for one row of a table (grouped
    /// homomorphic addition, §5.3).
    pub fn encrypt_hom_group(&self, slot_values: &[u64], rng: &mut StdRng) -> Value {
        let slot_bits = (HOM_VALUE_BITS + HOM_OVERFLOW_BITS) as usize;
        let mut plaintext = BigUint::zero();
        for (i, &v) in slot_values.iter().enumerate() {
            plaintext = plaintext.add(&BigUint::from_u64(v).shl(i * slot_bits));
        }
        encrypt_paillier(&self.paillier, &plaintext, rng)
    }

    /// Decrypts a `paillier_sum` aggregate over a packed HOM group column to
    /// the packed plaintext all its slots are read from with
    /// [`hom_group_slot`].
    pub(crate) fn decrypt_hom_group(&self, ciphertext: &[u8]) -> Result<BigUint, CoreError> {
        decrypt_paillier(&self.paillier, ciphertext)
    }

    /// Encrypts an entire plaintext database according to the design,
    /// producing the encrypted server database (with the Paillier public
    /// modulus registered so `paillier_sum` works).
    ///
    /// Everything that does not depend on the row — which source feeds which
    /// encrypted column under which cipher — is resolved once per table.
    /// Cells are still encrypted row by row in schema order, so the draws
    /// from the seeded RNG, and with them every ciphertext, do not depend on
    /// how the work is organised.
    pub fn encrypt_database(&self, plain: &Database, seed: u64) -> Result<Database, CoreError> {
        /// What one encrypted column stores.
        enum Cell<'a> {
            Scheme(usize, ColumnCrypto<'a>, EncScheme),
            /// The packed HOM group: `(source, type)` per slot.
            HomGroup(Vec<(usize, ColumnType)>),
        }

        let mut rng = StdRng::seed_from_u64(seed);
        let mut enc_db = Database::new();
        for schema in self.design.encrypted_schema(&self.paillier) {
            let unindexed = self
                .design
                .table(&schema.name)
                .map(TableDesign::unindexed_columns)
                .unwrap_or_default();
            enc_db.create_table_with(schema, unindexed);
        }
        enc_db.register_paillier_modulus(self.paillier.n_squared().clone());

        for (t, (name, td)) in self.design.tables.iter().enumerate() {
            let table = match plain.table(&td.table) {
                Some(t) => t,
                None => continue,
            };
            let plain_schema = RowSchema::new(
                table
                    .schema()
                    .columns
                    .iter()
                    .map(|c| (Some(td.table.clone()), c.name.clone()))
                    .collect(),
            );
            // Each source — a plaintext column or an expression over them —
            // bound once to the plaintext row's positions.
            let resolve = |e: &Expr| match e {
                Expr::Column(c) => plain_schema.resolve(c).map(BoundExpr::Column),
                _ => None,
            };
            let sources: Vec<BoundExpr> = td
                .columns
                .iter()
                .map(|cd| BoundExpr::bind(&cd.source, &resolve, &|_| None))
                .collect();
            let source_index = |base: &str| {
                td.base_index(base)
                    .ok_or_else(|| CoreError::new(format!("no design for {base}")))
            };
            let hom_group_column = td.hom_group_column();
            let cells = enc_db
                .table(&td.table)
                .expect("encrypted table just created")
                .schema()
                .columns
                .iter()
                .map(|enc_col| {
                    if td.col_packing && enc_col.name == hom_group_column {
                        let slots = td
                            .hom_slots()
                            .iter()
                            .map(|base| source_index(base).map(|c| (c, td.columns[c].ty)))
                            .collect::<Result<_, _>>()?;
                        return Ok(Cell::HomGroup(slots));
                    }
                    let (base, scheme) = parse_enc_name(&enc_col.name).ok_or_else(|| {
                        CoreError::new(format!("bad enc column {}", enc_col.name))
                    })?;
                    let c = source_index(&base)?;
                    Ok(Cell::Scheme(c, self.column_at(name, td, t, c), scheme))
                })
                .collect::<Result<Vec<Cell<'_>>, CoreError>>()?;

            let mut enc_rows: Vec<Vec<Value>> = Vec::with_capacity(table.row_count());
            let mut source_values: Vec<Value> = Vec::with_capacity(sources.len());
            let mut hom_slot_values: Vec<u64> = Vec::new();
            for ridx in 0..table.row_count() {
                let row = table.row(ridx);
                // Evaluate each source expression once.
                source_values.clear();
                for source in &sources {
                    source_values.push(
                        source
                            .eval(&row, &NoSubqueries)
                            .map_err(|e| CoreError::new(e.to_string()))?,
                    );
                }
                let mut enc_row: Vec<Value> = Vec::with_capacity(cells.len());
                for cell in &cells {
                    enc_row.push(match cell {
                        Cell::Scheme(c, column, scheme) => {
                            column.encrypt_value(*scheme, &source_values[*c], &mut rng)?
                        }
                        Cell::HomGroup(slots) => {
                            hom_slot_values.clear();
                            for (c, ty) in slots {
                                let v = &source_values[*c];
                                hom_slot_values.push(if v.is_null() {
                                    0
                                } else {
                                    plain_to_u64(v, *ty, false)?
                                });
                            }
                            self.encrypt_hom_group(&hom_slot_values, &mut rng)
                        }
                    });
                }
                enc_rows.push(enc_row);
            }
            enc_db
                .bulk_load(&td.table, enc_rows)
                .map_err(|e| CoreError::new(e.to_string()))?;
        }
        Ok(enc_db)
    }
}

impl<'a> ColumnCrypto<'a> {
    /// The column's design entry.
    pub fn design(&self) -> &'a ColumnDesign {
        self.design
    }

    fn is_integer(&self) -> bool {
        matches!(
            self.design.ty,
            ColumnType::Int | ColumnType::Date | ColumnType::Float
        )
    }

    fn master(&self) -> &'a MasterKey {
        &self.encryptor.master
    }

    fn det_int(&self) -> &'a FormatPreservingCipher {
        self.ciphers.det_int.get_or_init(|| {
            let label = Encryptor::det_label(self.table, &self.design.base_name);
            self.master().det_int("shared", &label, 64)
        })
    }

    fn det_bytes(&self) -> &'a DetBytes {
        self.ciphers.det_bytes.get_or_init(|| {
            let label = Encryptor::det_label(self.table, &self.design.base_name);
            self.master().det_bytes("shared", &label)
        })
    }

    fn rnd(&self) -> &'a RndCipher {
        self.ciphers
            .rnd
            .get_or_init(|| self.master().rnd(self.table, &self.design.base_name))
    }

    fn ope(&self) -> &'a OpeCipher {
        self.ciphers
            .ope
            .get_or_init(|| self.master().ope(self.table, &self.design.base_name))
    }

    /// The column's SEARCH scheme (the rewriter derives trapdoors from it).
    pub fn search(&self) -> &'a SearchScheme {
        self.ciphers
            .search
            .get_or_init(|| self.master().search(self.table, &self.design.base_name))
    }

    /// Encrypts one plaintext value of this column under a scheme.
    pub fn encrypt_value(
        &self,
        scheme: EncScheme,
        v: &Value,
        rng: &mut StdRng,
    ) -> Result<Value, CoreError> {
        if v.is_null() {
            return Ok(Value::Null);
        }
        let ty = self.design.ty;
        match scheme {
            EncScheme::Det if self.is_integer() => {
                let u = plain_to_u64(v, ty, false)?;
                Ok(Value::Int(self.det_int().encrypt(u) as i64))
            }
            EncScheme::Det => {
                let s = v
                    .as_str()
                    .ok_or_else(|| CoreError::new("DET of non-string value"))?;
                Ok(Value::Bytes(self.det_bytes().encrypt(s.as_bytes())))
            }
            EncScheme::Ope => {
                let u = plain_to_u64(v, ty, true)?;
                Ok(Value::Bytes(self.ope().encrypt(u).to_be_bytes().to_vec()))
            }
            EncScheme::Rnd => Ok(Value::Bytes(self.rnd().encrypt(rng, &encode_plain(v)))),
            EncScheme::Search => {
                let s = v
                    .as_str()
                    .ok_or_else(|| CoreError::new("SEARCH of non-string value"))?;
                Ok(Value::Bytes(self.search().encrypt(s).to_bytes()))
            }
            EncScheme::Hom => {
                let m = BigUint::from_u64(plain_to_u64(v, ty, false)?);
                Ok(encrypt_paillier(&self.encryptor.paillier, &m, rng))
            }
        }
    }

    /// Encrypts a constant for comparison against this column (used by the
    /// query rewriter for predicates like `col = 'x'` or `col > 10`).
    pub fn encrypt_constant(&self, scheme: EncScheme, v: &Value) -> Result<Value, CoreError> {
        let mut rng = StdRng::seed_from_u64(0);
        self.encrypt_value(scheme, v, &mut rng)
    }

    /// The decryptor for this column's ciphertexts under `scheme`; an error
    /// for the schemes the client cannot invert.
    pub(crate) fn decryptor(&self, scheme: EncScheme) -> Result<ValueDecryptor<'a>, CoreError> {
        match scheme {
            EncScheme::Det if self.is_integer() => {
                Ok(ValueDecryptor::DetInt(self.det_int(), self.design.ty))
            }
            EncScheme::Det => Ok(ValueDecryptor::DetStr(self.det_bytes())),
            EncScheme::Rnd => Ok(ValueDecryptor::Rnd(self.rnd())),
            EncScheme::Hom => Ok(ValueDecryptor::Hom(
                &self.encryptor.paillier,
                self.design.ty,
            )),
            EncScheme::Ope | EncScheme::Search => Err(CoreError::new(format!(
                "{scheme} ciphertexts are not client-decryptable"
            ))),
        }
    }

    /// Decrypts a value previously produced by
    /// [`encrypt_value`](Self::encrypt_value).
    pub fn decrypt_value(&self, scheme: EncScheme, v: &Value) -> Result<Value, CoreError> {
        self.decryptor(scheme)?.decrypt(v)
    }
}

impl ValueDecryptor<'_> {
    /// The scheme this decryptor inverts.
    pub(crate) fn scheme(&self) -> EncScheme {
        match self {
            ValueDecryptor::DetInt(..) | ValueDecryptor::DetStr(_) => EncScheme::Det,
            ValueDecryptor::Rnd(_) => EncScheme::Rnd,
            ValueDecryptor::Hom(..) => EncScheme::Hom,
        }
    }

    /// Decrypts one value; NULL stays NULL. The value came from the untrusted
    /// server: one of the wrong kind, or bytes the scheme cannot have
    /// produced, is an error.
    pub(crate) fn decrypt(&self, v: &Value) -> Result<Value, CoreError> {
        if v.is_null() {
            return Ok(Value::Null);
        }
        let bytes = |what: &str| {
            v.as_bytes()
                .ok_or_else(|| CoreError::new(format!("{what} ciphertext must be bytes")))
        };
        match self {
            ValueDecryptor::DetInt(fpe, ty) => {
                let ct = v
                    .as_int()
                    .ok_or_else(|| CoreError::new("DET int ciphertext must be an integer"))?;
                Ok(decode_int(fpe.decrypt(ct as u64), *ty))
            }
            ValueDecryptor::DetStr(det) => {
                let plain = det.decrypt(bytes("DET string")?)?;
                Ok(Value::Str(String::from_utf8_lossy(&plain).into_owned()))
            }
            ValueDecryptor::Rnd(rnd) => decode_plain(&rnd.decrypt(bytes("RND")?)?),
            ValueDecryptor::Hom(paillier, ty) => {
                let u = decrypt_paillier(paillier, bytes("HOM")?)?
                    .to_u128()
                    .ok_or_else(|| CoreError::new("decrypted HOM value exceeds 128 bits"))?;
                Ok(decode_hom_sum(u as u64, *ty))
            }
        }
    }
}

impl From<CipherError> for CoreError {
    fn from(e: CipherError) -> Self {
        CoreError::new(format!("malformed ciphertext: {e}"))
    }
}

/// A Paillier ciphertext of `m` as the fixed-width bytes the server stores.
fn encrypt_paillier(paillier: &PaillierKey, m: &BigUint, rng: &mut StdRng) -> Value {
    Value::Bytes(
        paillier
            .encrypt(rng, m)
            .to_bytes_be_padded(paillier.ciphertext_bytes()),
    )
}

/// Paillier-decrypts server-supplied bytes. `PaillierKey::decrypt` requires a
/// residue below n², and a zero has no plaintext: both are checked here.
fn decrypt_paillier(paillier: &PaillierKey, ciphertext: &[u8]) -> Result<BigUint, CoreError> {
    let c = BigUint::from_bytes_be(ciphertext);
    if c.is_zero() || &c >= paillier.n_squared() {
        return Err(CoreError::new(
            "malformed ciphertext: not a Paillier residue modulo n²",
        ));
    }
    Ok(paillier.decrypt(&c))
}

/// Reads the sum in slot `slot_index` out of a decrypted packed HOM group
/// (see [`Encryptor::decrypt_hom_group`]).
pub(crate) fn hom_group_slot(
    packed: &BigUint,
    slot_index: usize,
    ty: ColumnType,
) -> Result<Value, CoreError> {
    let slot_bits = (HOM_VALUE_BITS + HOM_OVERFLOW_BITS) as usize;
    let slot = packed.shr(slot_index * slot_bits).low_bits(slot_bits);
    let u = slot
        .to_u128()
        .ok_or_else(|| CoreError::new("slot exceeds 128 bits"))? as u64;
    Ok(decode_hom_sum(u, ty))
}

fn plain_to_u64(v: &Value, ty: ColumnType, order_preserving: bool) -> Result<u64, CoreError> {
    let signed = match v {
        Value::Int(i) => *i,
        Value::Date(d) => *d as i64 + DATE_BIAS,
        // Scale floats to fixed-point before integer encryption.
        Value::Float(f) => (*f * 100.0).round() as i64,
        other => {
            return Err(CoreError::new(format!(
                "cannot encode {other:?} of type {ty:?} as an integer"
            )))
        }
    };
    Ok(if order_preserving {
        monomi_crypto::i64_to_ordered_u64(signed)
    } else {
        signed as u64
    })
}

/// Splits an encrypted column name `<base>_<scheme>` back into its parts.
pub fn parse_enc_name(name: &str) -> Option<(String, EncScheme)> {
    let idx = name.rfind('_')?;
    let (base, suffix) = (&name[..idx], &name[idx + 1..]);
    let scheme = match suffix {
        "rnd" => EncScheme::Rnd,
        "det" => EncScheme::Det,
        "ope" => EncScheme::Ope,
        "hom" => EncScheme::Hom,
        "search" => EncScheme::Search,
        _ => return None,
    };
    Some((base.to_string(), scheme))
}

/// Serializes a plaintext value for RND encryption.
fn encode_plain(v: &Value) -> Vec<u8> {
    match v {
        Value::Int(i) => {
            let mut out = vec![1u8];
            out.extend_from_slice(&i.to_be_bytes());
            out
        }
        Value::Date(d) => {
            let mut out = vec![2u8];
            out.extend_from_slice(&d.to_be_bytes());
            out
        }
        Value::Float(f) => {
            let mut out = vec![3u8];
            out.extend_from_slice(&f.to_be_bytes());
            out
        }
        Value::Str(s) => {
            let mut out = vec![4u8];
            out.extend_from_slice(s.as_bytes());
            out
        }
        other => {
            let mut out = vec![4u8];
            out.extend_from_slice(other.to_string().as_bytes());
            out
        }
    }
}

/// Inverse of [`encode_plain`]. The payload was decrypted from bytes the
/// server sent, so one `encode_plain` cannot have written is an error.
fn decode_plain(bytes: &[u8]) -> Result<Value, CoreError> {
    let short = || CoreError::new("malformed ciphertext: RND payload too short for its tag");
    let (tag, body) = bytes.split_first().ok_or_else(short)?;
    Ok(match tag {
        1 => Value::Int(i64::from_be_bytes(*body.first_chunk().ok_or_else(short)?)),
        2 => Value::Date(i32::from_be_bytes(*body.first_chunk().ok_or_else(short)?)),
        3 => Value::Float(f64::from_be_bytes(*body.first_chunk().ok_or_else(short)?)),
        4 => Value::Str(String::from_utf8_lossy(body).into_owned()),
        other => {
            return Err(CoreError::new(format!(
                "malformed ciphertext: unknown RND payload tag {other}"
            )))
        }
    })
}

fn decode_int(u: u64, ty: ColumnType) -> Value {
    match ty {
        ColumnType::Date => Value::Date((u as i64 - DATE_BIAS) as i32),
        ColumnType::Float => Value::Float(u as i64 as f64 / 100.0),
        _ => Value::Int(u as i64),
    }
}

/// Decodes a homomorphic sum back to the logical type. Sums of date-biased or
/// fixed-point values only make sense for Int columns, which is what the
/// designer offers HOM for.
fn decode_hom_sum(u: u64, ty: ColumnType) -> Value {
    match ty {
        ColumnType::Float => Value::Float(u as f64 / 100.0),
        _ => Value::Int(u as i64),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use monomi_sql::parse_query;

    fn plain_db() -> Database {
        let mut db = Database::new();
        db.create_table(TableSchema::new(
            "orders",
            vec![
                ColumnDef::new("o_orderkey", ColumnType::Int),
                ColumnDef::new("o_totalprice", ColumnType::Int),
                ColumnDef::new("o_orderdate", ColumnType::Date),
                ColumnDef::new("o_comment", ColumnType::Str),
            ],
        ));
        for i in 0..20i64 {
            db.insert(
                "orders",
                vec![
                    Value::Int(i),
                    Value::Int(100 + i),
                    Value::Date(8000 + i as i32),
                    Value::Str(format!("comment number {i} with express words")),
                ],
            )
            .unwrap();
        }
        db
    }

    fn sample_design(plain: &Database) -> PhysicalDesign {
        // 512-bit Paillier so multi-row packing has room for more than one row.
        let mut design = PhysicalDesign::new(512);
        {
            let td = design.table_mut("orders");
            td.add(Expr::col("o_orderkey"), ColumnType::Int, EncScheme::Det);
            td.add(Expr::col("o_totalprice"), ColumnType::Int, EncScheme::Det);
            td.add(Expr::col("o_totalprice"), ColumnType::Int, EncScheme::Hom);
            td.add(Expr::col("o_totalprice"), ColumnType::Int, EncScheme::Ope);
            td.add(Expr::col("o_orderdate"), ColumnType::Date, EncScheme::Ope);
            td.add(Expr::col("o_orderdate"), ColumnType::Date, EncScheme::Det);
            td.add(Expr::col("o_comment"), ColumnType::Str, EncScheme::Search);
            td.add(Expr::col("o_comment"), ColumnType::Str, EncScheme::Rnd);
            // A precomputed expression: o_totalprice * 2.
            let pre = parse_query("SELECT o_totalprice * 2 FROM orders")
                .unwrap()
                .projections[0]
                .expr
                .clone();
            td.add(pre, ColumnType::Int, EncScheme::Hom);
            td.col_packing = true;
        }
        design.add_baseline_coverage(plain);
        design
    }

    #[test]
    fn design_construction_and_names() {
        let plain = plain_db();
        let design = sample_design(&plain);
        let td = design.table("orders").unwrap();
        let ok = &td.columns[td.base_index("o_totalprice").unwrap()];
        assert!(ok.schemes.contains(&EncScheme::Det));
        assert!(ok.schemes.contains(&EncScheme::Hom));
        assert_eq!(ok.enc_name(EncScheme::Det), "o_totalprice_det");
        let pre = td.columns.iter().find(|c| c.is_precomputed()).unwrap();
        assert_eq!(pre.base_name, "precomp_0");
        assert_eq!(td.hom_slots().len(), 2);
        assert_eq!(td.hom_slot_index("o_totalprice"), Some(0));
        assert_eq!(td.hom_slot_index("precomp_0"), Some(1));
    }

    #[test]
    fn index_opt_out_surfaces_leakage_and_unindexed_columns() {
        let plain = plain_db();
        let mut design = sample_design(&plain);
        // Nothing opted out: every DET/OPE materialization is exposed and
        // no column is unindexed.
        assert!(design.unindexed_by_table().is_empty());
        let exposure = design.index_exposure();
        let cols = exposure.get("orders").unwrap();
        assert!(cols.contains(&("o_totalprice_det".into(), EncScheme::Det)));
        assert!(cols.contains(&("o_orderdate_ope".into(), EncScheme::Ope)));
        // HOM/RND/SEARCH materializations never appear: they build no index.
        assert!(cols.iter().all(|(name, _)| {
            !name.ends_with("_hom") && !name.ends_with("_rnd") && !name.ends_with("_search")
        }));

        // Opting a source out moves its DET+OPE names from the exposure
        // report to the unindexed list create_table_with persists.
        let td = design.table_mut("orders");
        assert!(td.set_index_opt_out("o_totalprice", true));
        assert!(!td.set_index_opt_out("no_such_column", true));
        let unindexed = design.unindexed_by_table();
        assert_eq!(
            unindexed.get("orders").unwrap(),
            &vec![
                "o_totalprice_det".to_string(),
                "o_totalprice_ope".to_string()
            ]
        );
        let exposure = design.index_exposure();
        assert!(exposure
            .get("orders")
            .unwrap()
            .iter()
            .all(|(n, _)| !n.starts_with("o_totalprice")));

        // Opting back in restores the exposure and empties the list.
        design
            .table_mut("orders")
            .set_index_opt_out("o_totalprice", false);
        assert!(design.unindexed_by_table().is_empty());
        assert!(design
            .index_exposure()
            .get("orders")
            .unwrap()
            .contains(&("o_totalprice_ope".into(), EncScheme::Ope)));
    }

    #[test]
    fn parse_enc_name_roundtrip() {
        assert_eq!(
            parse_enc_name("l_quantity_det"),
            Some(("l_quantity".into(), EncScheme::Det))
        );
        assert_eq!(
            parse_enc_name("precomp_3_hom"),
            Some(("precomp_3".into(), EncScheme::Hom))
        );
        assert_eq!(parse_enc_name("nounderscore"), None);
    }

    #[test]
    fn encrypt_decrypt_roundtrip_per_scheme() {
        let plain = plain_db();
        let design = sample_design(&plain);
        let enc = Encryptor::new(MasterKey::from_bytes([1u8; 32]), design, 7);
        let mut rng = StdRng::seed_from_u64(3);
        for (base, scheme, v) in [
            ("o_orderkey", EncScheme::Det, Value::Int(5)),
            ("o_orderdate", EncScheme::Det, Value::Date(8005)),
            ("o_comment", EncScheme::Rnd, Value::Str("hello".into())),
            ("o_totalprice", EncScheme::Hom, Value::Int(123)),
        ] {
            let column = enc.column("orders", base).unwrap();
            let ct = column.encrypt_value(scheme, &v, &mut rng).unwrap();
            assert_ne!(ct, v, "{base} {scheme}");
            assert_eq!(
                column.decrypt_value(scheme, &ct).unwrap(),
                v,
                "{base} {scheme}"
            );
            // NULL is stored and fetched as NULL under every scheme.
            assert_eq!(
                column
                    .encrypt_value(scheme, &Value::Null, &mut rng)
                    .unwrap(),
                Value::Null
            );
            assert_eq!(
                column.decrypt_value(scheme, &Value::Null).unwrap(),
                Value::Null
            );
        }
        assert!(enc.column("orders", "no_such_column").is_none());
        assert!(enc.column("no_such_table", "o_orderkey").is_none());
        let price = enc.column("ORDERS", "o_totalprice").unwrap();
        assert!(price.decrypt_value(EncScheme::Ope, &Value::Int(1)).is_err());
    }

    /// The cached cipher of a column is the one `MasterKey` derives for it:
    /// caching changes when a key is derived, never which key.
    #[test]
    fn cached_ciphers_are_the_master_keys_ciphers() {
        let plain = plain_db();
        let design = sample_design(&plain);
        let master = MasterKey::from_bytes([1u8; 32]);
        let enc = Encryptor::new(master.clone(), design, 7);
        let mut rng = StdRng::seed_from_u64(3);
        // A join key shares its DET label across tables; other columns are
        // keyed per table and column.
        let key = enc.column("orders", "o_orderkey").unwrap();
        assert_eq!(
            key.encrypt_value(EncScheme::Det, &Value::Int(5), &mut rng)
                .unwrap(),
            Value::Int(master.det_int("shared", "joinkey.orderkey", 64).encrypt(5) as i64)
        );
        let price = enc.column("orders", "o_totalprice").unwrap();
        assert_eq!(
            price
                .encrypt_constant(EncScheme::Det, &Value::Int(5))
                .unwrap(),
            Value::Int(
                master
                    .det_int("shared", "orders.o_totalprice", 64)
                    .encrypt(5) as i64
            )
        );
        assert_eq!(
            price
                .encrypt_constant(EncScheme::Ope, &Value::Int(5))
                .unwrap(),
            Value::Bytes(
                master
                    .ope("orders", "o_totalprice")
                    .encrypt_i64(5)
                    .to_be_bytes()
                    .to_vec()
            )
        );
        let comment = enc.column("orders", "o_comment").unwrap();
        let ct = comment
            .encrypt_value(EncScheme::Rnd, &Value::Str("x".into()), &mut rng)
            .unwrap();
        let payload = master
            .rnd("orders", "o_comment")
            .decrypt(ct.as_bytes().unwrap())
            .unwrap();
        assert_eq!(payload, b"\x04x");
    }

    /// Bytes no cipher of ours produced — truncated, not whole blocks, badly
    /// padded, a short RND payload, a non-residue — are errors from the
    /// trusted client, never a panic.
    #[test]
    fn malformed_ciphertexts_are_errors_for_every_scheme() {
        let plain = plain_db();
        let design = sample_design(&plain);
        let master = MasterKey::from_bytes([1u8; 32]);
        let enc = Encryptor::new(master.clone(), design, 7);
        let mut rng = StdRng::seed_from_u64(3);
        let bytes = |v: &Value| v.as_bytes().unwrap().to_vec();
        let is_malformed = |r: Result<Value, CoreError>| {
            let e = r.expect_err("malformed ciphertext accepted");
            assert!(e.message.contains("malformed ciphertext"), "{e}");
        };

        // DET string (a design of its own: the sample has none).
        let mut design = PhysicalDesign::new(128);
        design
            .table_mut("t")
            .add(Expr::col("s"), ColumnType::Str, EncScheme::Det);
        let det_enc = Encryptor::with_keys(master.clone(), enc.paillier().clone(), design);
        let s = det_enc.column("t", "s").unwrap();
        let ct = bytes(
            &s.encrypt_value(
                EncScheme::Det,
                &Value::Str("seventeen chars..".into()),
                &mut rng,
            )
            .unwrap(),
        );
        for bad in [&ct[..0], &ct[..5], &ct[..17], &ct[..16]] {
            is_malformed(s.decrypt_value(EncScheme::Det, &Value::Bytes(bad.to_vec())));
        }
        assert!(s.decrypt_value(EncScheme::Det, &Value::Int(1)).is_err());

        // RND: truncated, cut inside a block, bad padding, short payload.
        let comment = enc.column("orders", "o_comment").unwrap();
        let ct = bytes(
            &comment
                .encrypt_value(
                    EncScheme::Rnd,
                    &Value::Str("a comment of some length".into()),
                    &mut rng,
                )
                .unwrap(),
        );
        for bad in [&ct[..0], &ct[..16], &ct[..20], &ct[..32]] {
            is_malformed(comment.decrypt_value(EncScheme::Rnd, &Value::Bytes(bad.to_vec())));
        }
        let rnd = master.rnd("orders", "o_comment");
        for payload in [&b""[..], &[1, 0, 0][..], &[2, 0][..], &[3][..], &[9, 9][..]] {
            let ct = rnd.encrypt(&mut rng, payload);
            is_malformed(comment.decrypt_value(EncScheme::Rnd, &Value::Bytes(ct)));
        }
        assert!(comment
            .decrypt_value(EncScheme::Rnd, &Value::Int(1))
            .is_err());

        // DET int: only the kind can be wrong, every u64 is a ciphertext.
        let key = enc.column("orders", "o_orderkey").unwrap();
        assert!(key
            .decrypt_value(EncScheme::Det, &Value::Bytes(vec![1; 8]))
            .is_err());

        // HOM: zero and anything at or above n² are not residues.
        let price = enc.column("orders", "o_totalprice").unwrap();
        let too_big = enc.paillier().n_squared().to_bytes_be();
        for bad in [vec![], vec![0u8; 64], too_big, vec![0xff; 4096]] {
            is_malformed(price.decrypt_value(EncScheme::Hom, &Value::Bytes(bad.clone())));
            assert!(enc.decrypt_hom_group(&bad).is_err());
        }
    }

    #[test]
    fn encrypted_database_has_no_plaintext_and_right_shape() {
        let plain = plain_db();
        let design = sample_design(&plain);
        let enc = Encryptor::new(MasterKey::from_bytes([2u8; 32]), design, 11);
        let enc_db = enc.encrypt_database(&plain, 99).unwrap();
        let table = enc_db.table("orders").unwrap();
        assert_eq!(table.row_count(), 20);
        // The encrypted schema contains only suffixed columns and the group column.
        for col in &table.schema().columns {
            assert!(
                parse_enc_name(&col.name).is_some() || col.name.ends_with("_homgrp_hom"),
                "unexpected column {}",
                col.name
            );
        }
        // Encrypted sums work end to end through the engine UDF.
        let (rs, _) = enc_db
            .execute_sql("SELECT paillier_sum(orders_homgrp_hom) FROM orders", &[])
            .unwrap();
        let packed = enc
            .decrypt_hom_group(rs.rows[0][0].as_bytes().unwrap())
            .unwrap();
        let slot0 = hom_group_slot(&packed, 0, ColumnType::Int).unwrap();
        let expected: i64 = (0..20).map(|i| 100 + i).sum();
        assert_eq!(slot0, Value::Int(expected));
        let slot1 = hom_group_slot(&packed, 1, ColumnType::Int).unwrap();
        assert_eq!(slot1, Value::Int(expected * 2));
    }

    #[test]
    fn storage_accounting_orders_scheme_sizes() {
        let plain = plain_db();
        let design = sample_design(&plain);
        let enc = Encryptor::new(MasterKey::from_bytes([2u8; 32]), design.clone(), 11);
        let bytes = design.storage_bytes(&plain, enc.paillier());
        assert!(bytes > plain.total_size_bytes());
        // Multi-row packing shrinks the footprint.
        let mut packed = design.clone();
        packed.table_mut("orders").multirow_packing = true;
        let packed_bytes = packed.storage_bytes(&plain, enc.paillier());
        assert!(packed_bytes < bytes);
    }

    #[test]
    fn security_summary_buckets() {
        let plain = plain_db();
        let design = sample_design(&plain);
        let summary = design.security_summary();
        let orders = &summary["orders"];
        // o_comment weakest is SEARCH (strong bucket includes RND/HOM/SEARCH)?
        // o_comment has Search + Rnd => weakest = Search (rank 1) => bucket 0.
        assert!(orders.base[0] >= 1);
        // o_totalprice has OPE => bucket 2.
        assert!(orders.base[2] >= 1);
        // The precomputed HOM column is strong.
        assert_eq!(orders.precomputed[0], 1);
    }
}
