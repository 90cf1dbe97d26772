//! One declaration per wire shape.
//!
//! A tool's arguments and its result cross the tool boundary as
//! `serde_json::Value` — the form the provenance log, token accounting
//! and persisted sessions want. [`Wire`] ties the three things that must
//! agree about that form to one Rust type: how the type lowers to JSON,
//! how it lifts back, and the closed [`Schema`] that describes it.
//! [`tool_output!`](crate::tool_output) emits the type and its `Wire`
//! impl together from `field: type = "description"` lines, so a renamed
//! field is a compile error at every reader instead of a `NaN` in a
//! narration.
//!
//! A lift accepts what the schema accepts: a leaf's schema states the
//! range its lift takes, a struct refuses an undeclared key, and a
//! declared bound is checked by both. Non-finite numbers have no wire
//! form: they lower to `null`, which no number schema accepts and no
//! `f64` lifts from.

use crate::schema::{type_name, Field, Schema};
#[doc(hidden)]
pub use serde_json::{Map, Value};

/// A type with exactly one wire form and the schema that describes it.
pub trait Wire: Sized {
    /// Schema of the wire form.
    fn schema() -> Schema;

    /// Lowers to JSON.
    fn to_wire(&self) -> Value;

    /// Lifts from JSON; the message names what did not fit.
    fn from_wire(v: &Value) -> Result<Self, String>;

    /// Field definition for a struct member of this type.
    fn field(name: &str, description: &str) -> Field {
        Field::required(name, Self::schema(), description)
    }

    /// Wire form as a struct member; `None` leaves the key out.
    fn to_field(&self) -> Option<Value> {
        Some(self.to_wire())
    }

    /// Lifts a struct member from its key's value, if the key is there.
    fn from_field(v: Option<&Value>) -> Result<Self, String> {
        Self::from_wire(v.ok_or("required field missing")?)
    }

    /// Whether `key` is one of this type's members (a declared struct's
    /// own or flattened keys; nothing else has members).
    fn declares(_key: &str) -> bool {
        false
    }

    /// Lifts this type's members from an object that may carry other
    /// keys too — how a flattened member reads its share of the object
    /// around it.
    fn from_members(_obj: &Map<String, Value>) -> Result<Self, String> {
        Err("not a declared struct".into())
    }
}

/// A scalar's `Wire` impl: its schema, and the `Value` accessor that
/// lifts it (the accessor's `None` is the mismatch).
macro_rules! wire_scalar {
    ($($t:ty: $schema:expr, $expected:literal, $lift:expr;)*) => {$(
        impl Wire for $t {
            fn schema() -> Schema {
                $schema
            }
            fn to_wire(&self) -> Value {
                serde_json::json!(self)
            }
            fn from_wire(v: &Value) -> Result<Self, String> {
                let lift: fn(&Value) -> Option<$t> = $lift;
                lift(v).ok_or_else(|| format!("expected {}, got {}", $expected, type_name(v)))
            }
        }
    )*};
}

wire_scalar! {
    f64: Schema::number(), "number", Value::as_f64;
    bool: Schema::Bool, "boolean", Value::as_bool;
    String: Schema::string(), "string", |v| v.as_str().map(String::from);
    // An integer schema reads its value as an `i64`, so no unsigned
    // leaf goes past `i64::MAX`.
    u32: Schema::Integer { min: Some(0), max: Some(u32::MAX.into()) }, "integer in [0, 4294967295]",
        |v| v.as_i64().and_then(|n| n.try_into().ok());
    u64: Schema::Integer { min: Some(0), max: Some(i64::MAX) }, "integer in [0, 2^63)",
        |v| v.as_i64().and_then(|n| n.try_into().ok());
    usize: Schema::Integer { min: Some(0), max: Some(i64::MAX) }, "integer in [0, 2^63)",
        |v| v.as_i64().and_then(|n| n.try_into().ok());
}

/// No arguments: the empty closed object.
impl Wire for () {
    fn schema() -> Schema {
        Schema::object(Vec::new())
    }
    fn to_wire(&self) -> Value {
        Value::Object(Map::new())
    }
    fn from_wire(v: &Value) -> Result<Self, String> {
        match v.as_object().map(|obj| obj.keys().next()) {
            Some(None) => Ok(()),
            Some(Some(key)) => Err(format!("{key}: unexpected field")),
            None => Err(format!("expected object, got {}", type_name(v))),
        }
    }
}

impl<T: Wire> Wire for Option<T> {
    fn schema() -> Schema {
        T::schema()
    }
    fn to_wire(&self) -> Value {
        self.as_ref().map_or(Value::Null, T::to_wire)
    }
    fn from_wire(v: &Value) -> Result<Self, String> {
        T::from_wire(v).map(Some)
    }
    fn field(name: &str, description: &str) -> Field {
        Field::optional(name, T::schema(), description)
    }
    fn to_field(&self) -> Option<Value> {
        self.as_ref().map(T::to_wire)
    }
    fn from_field(v: Option<&Value>) -> Result<Self, String> {
        v.map(T::from_wire).transpose()
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn schema() -> Schema {
        Schema::array(T::schema())
    }
    fn to_wire(&self) -> Value {
        Value::Array(self.iter().map(T::to_wire).collect())
    }
    fn from_wire(v: &Value) -> Result<Self, String> {
        let items = v
            .as_array()
            .ok_or_else(|| format!("expected array, got {}", type_name(v)))?;
        items
            .iter()
            .enumerate()
            .map(|(i, item)| T::from_wire(item).map_err(|e| format!("[{i}]: {e}")))
            .collect()
    }
}

impl<T: Wire, const N: usize> Wire for [T; N] {
    fn schema() -> Schema {
        Schema::array(T::schema())
    }
    fn to_wire(&self) -> Value {
        Value::Array(self.iter().map(T::to_wire).collect())
    }
    fn from_wire(v: &Value) -> Result<Self, String> {
        <Vec<T>>::from_wire(v)?
            .try_into()
            .map_err(|_| format!("expected array of {N}"))
    }
}

/// A bounded member's value checked against its bounded schema.
#[doc(hidden)]
pub fn check_bound(schema: Schema, v: Option<&Value>) -> Result<(), String> {
    let Some(Err(violations)) = v.map(|v| schema.validate(v)) else {
        return Ok(());
    };
    let messages: Vec<String> = violations.into_iter().map(|v| v.message).collect();
    Err(messages.join("; "))
}

/// Declares a tool's arguments or its result — or a part of one — once.
///
/// The struct form takes `field: Type = "description"` lines and emits a
/// struct with public fields (the description doubles as the field's
/// doc comment) plus its [`Wire`] impl: a **closed** object schema with
/// one [`Field`] per line, and the two conversions. A line may end in a
/// bound, `p_mw: f64 = "new demand (MW)" in 0.0..=100_000.0` or
/// `bus_id: u32 = "bus" in 1..`: each finite end of the bound replaces
/// the leaf's own in the field's schema, and lifting checks it again. A
/// leading
/// `..name: Type` member is flattened: its keys sit beside the struct's
/// own on the wire, which is how results extend a shared summary.
/// `Option` members are optional in the schema and absent from the wire
/// when `None`. Lifting refuses a key the struct does not declare, as
/// the closed schema does.
///
/// The string-enum form, `pub enum Name { A = "a", B = "b" }`, is a
/// closed set of wire strings: it emits a `Copy` enum with `ALL`,
/// `as_str` and `parse`, and its schema is the string enumeration. (It is
/// always `pub`: a derive on it, like `ErrorCode`'s serde one, cannot
/// read a forwarded visibility.)
///
/// The union form, `enum Name { A(TypeA), B(TypeB) }`, is an untagged
/// union of declared shapes: it lowers as the variant's payload, its
/// schema is [`Schema::OneOf`], and it lifts as the first variant that
/// fits.
#[macro_export]
macro_rules! tool_output {
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident {
            $(..$flat:ident: $flat_ty:ty,)*
            $($field:ident: $ty:ty = $desc:literal $(in $bound:expr)?,)*
        }
    ) => {
        $(#[$meta])*
        #[derive(Clone, Debug, PartialEq)]
        $vis struct $name {
            $(
                #[doc = concat!("Flattened [`", stringify!($flat_ty), "`].")]
                pub $flat: $flat_ty,
            )*
            $(
                #[doc = $desc]
                pub $field: $ty,
            )*
        }

        impl $crate::Wire for $name {
            fn schema() -> $crate::Schema {
                let mut fields: Vec<$crate::Field> = Vec::new();
                $(fields.extend(<$flat_ty as $crate::Wire>::schema().into_fields());)*
                fields.extend([$({
                    #[allow(unused_mut)]
                    let mut field = <$ty as $crate::Wire>::field(stringify!($field), $desc);
                    $(field.schema = field.schema.within(&($bound));)?
                    field
                }),*]);
                $crate::Schema::object(fields)
            }

            fn to_wire(&self) -> $crate::wire::Value {
                let mut map = $crate::wire::Map::new();
                $(
                    if let $crate::wire::Value::Object(part) = $crate::Wire::to_wire(&self.$flat) {
                        map.extend(part);
                    }
                )*
                $(
                    if let Some(v) = $crate::Wire::to_field(&self.$field) {
                        map.insert(stringify!($field).to_string(), v);
                    }
                )*
                $crate::wire::Value::Object(map)
            }

            fn from_wire(v: &$crate::wire::Value) -> Result<Self, String> {
                let obj = v
                    .as_object()
                    .ok_or_else(|| format!("expected object, got {}", $crate::schema::type_name(v)))?;
                let out = <Self as $crate::Wire>::from_members(obj)?;
                match obj.keys().find(|k| !<Self as $crate::Wire>::declares(k)) {
                    Some(key) => Err(format!("{key}: unexpected field")),
                    None => Ok(out),
                }
            }

            fn declares(key: &str) -> bool {
                $(<$flat_ty as $crate::Wire>::declares(key) ||)*
                    [$(stringify!($field)),*].contains(&key)
            }

            fn from_members(
                obj: &$crate::wire::Map<String, $crate::wire::Value>,
            ) -> Result<Self, String> {
                Ok($name {
                    $($flat: <$flat_ty as $crate::Wire>::from_members(obj)?,)*
                    $(
                        $field: {
                            let v = obj.get(stringify!($field));
                            $(
                                $crate::wire::check_bound(
                                    <$ty as $crate::Wire>::schema().within(&($bound)),
                                    v,
                                )
                                .map_err(|e| format!("{}: {e}", stringify!($field)))?;
                            )?
                            <$ty as $crate::Wire>::from_field(v)
                                .map_err(|e| format!("{}: {e}", stringify!($field)))?
                        },
                    )*
                })
            }
        }
    };
    (
        $(#[$meta:meta])*
        pub enum $name:ident {
            $($(#[$vmeta:meta])* $variant:ident = $wire:literal,)+
        }
    ) => {
        $(#[$meta])*
        #[derive(Clone, Copy, Debug, PartialEq, Eq)]
        pub enum $name {
            $($(#[$vmeta])* $variant,)+
        }

        impl $name {
            /// Every value, in declaration order.
            pub const ALL: &'static [$name] = &[$($name::$variant),+];

            /// The value's wire spelling.
            pub fn as_str(self) -> &'static str {
                match self {
                    $($name::$variant => $wire,)+
                }
            }

            /// The value spelled `s` on the wire, if there is one.
            pub fn parse(s: &str) -> Option<$name> {
                match s {
                    $($wire => Some($name::$variant),)+
                    _ => None,
                }
            }
        }

        impl $crate::Wire for $name {
            fn schema() -> $crate::Schema {
                $crate::Schema::string_enum(&[$($wire),+])
            }

            fn to_wire(&self) -> $crate::wire::Value {
                $crate::wire::Value::String(self.as_str().into())
            }

            fn from_wire(v: &$crate::wire::Value) -> Result<Self, String> {
                let s = v
                    .as_str()
                    .ok_or_else(|| format!("expected string, got {}", $crate::schema::type_name(v)))?;
                $name::parse(s)
                    .ok_or_else(|| format!("value {s:?} not in enum {:?}", [$($wire),+]))
            }
        }
    };
    (
        $(#[$meta:meta])*
        $vis:vis enum $name:ident {
            $($(#[$vmeta:meta])* $variant:ident($ty:ty),)+
        }
    ) => {
        $(#[$meta])*
        #[derive(Clone, Debug, PartialEq)]
        $vis enum $name {
            $($(#[$vmeta])* $variant($ty),)+
        }

        impl $crate::Wire for $name {
            fn schema() -> $crate::Schema {
                $crate::Schema::OneOf {
                    variants: vec![$(<$ty as $crate::Wire>::schema()),+],
                }
            }

            fn to_wire(&self) -> $crate::wire::Value {
                match self {
                    $($name::$variant(inner) => $crate::Wire::to_wire(inner),)+
                }
            }

            fn from_wire(v: &$crate::wire::Value) -> Result<Self, String> {
                let mut misses = Vec::new();
                $(
                    match <$ty as $crate::Wire>::from_wire(v) {
                        Ok(inner) => return Ok($name::$variant(inner)),
                        Err(e) => misses.push(format!("{}: {e}", stringify!($variant))),
                    }
                )+
                Err(format!("fits no variant ({})", misses.join("; ")))
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;

    tool_output! {
        /// Shared part.
        struct Base {
            cost: f64 = "cost ($/h)",
            note: Option<String> = "free text",
        }
    }

    tool_output! {
        /// Extends `Base`.
        struct Extended {
            ..base: Base,
            bus: u32 = "bus id",
            band: [f64; 2] = "voltage band",
        }
    }

    tool_output! {
        struct Missing {
            label: String = "which row",
            error: String = "why there is no number",
        }
    }

    tool_output! {
        enum Row {
            Priced(Base),
            Missing(Missing),
        }
    }

    fn extended() -> Extended {
        Extended {
            base: Base {
                cost: 12.5,
                note: None,
            },
            bus: 7,
            band: [0.95, 1.05],
        }
    }

    #[test]
    fn flattened_struct_round_trips_and_validates() {
        let wire = extended().to_wire();
        assert_eq!(
            wire,
            json!({"cost": 12.5, "bus": 7, "band": [0.95, 1.05]}),
            "flattened keys sit beside the struct's own; a None leaves no key"
        );
        assert!(Extended::schema().validate(&wire).is_ok());
        assert_eq!(Extended::from_wire(&wire).unwrap(), extended());
    }

    #[test]
    fn generated_schema_is_closed_and_complete() {
        let Schema::Object { fields, closed } = Extended::schema() else {
            panic!("struct schema must be an object");
        };
        assert!(closed);
        let names: Vec<&str> = fields.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, ["cost", "note", "bus", "band"]);
        assert!(!fields[1].required, "Option members are optional");
        assert_eq!(fields[0].description, "cost ($/h)");
        let errs = Extended::schema()
            .validate(&json!({"cost": 1.0, "bus": 1, "band": [], "extra": 0}))
            .unwrap_err();
        assert!(errs.iter().any(|e| e.path == "$.extra"));
    }

    #[test]
    fn non_finite_numbers_have_no_wire_form() {
        let mut out = extended();
        out.base.cost = f64::NAN;
        let wire = out.to_wire();
        let errs = Extended::schema().validate(&wire).unwrap_err();
        assert_eq!(errs[0].path, "$.cost");
        assert!(Extended::from_wire(&wire).unwrap_err().starts_with("cost:"));
        // Nor does `null` lift back into a NaN.
        assert!(f64::from_wire(&Value::Null).is_err());
    }

    #[test]
    fn lifting_reports_the_member_that_did_not_fit() {
        let err =
            Extended::from_wire(&json!({"cost": 1.0, "bus": -3, "band": [1.0, 2.0]})).unwrap_err();
        assert!(err.starts_with("bus:"), "{err}");
        let err = Extended::from_wire(&json!({"cost": 1.0, "bus": 3, "band": [1.0]})).unwrap_err();
        assert!(err.starts_with("band:"), "{err}");
        let err = Extended::from_wire(&json!({"bus": 3, "band": [1.0, 2.0]})).unwrap_err();
        assert_eq!(err, "cost: required field missing");
    }

    #[test]
    fn untagged_enum_lifts_the_first_variant_that_fits() {
        let priced = Row::Priced(Base {
            cost: 3.0,
            note: Some("ok".into()),
        });
        let missing = Row::Missing(Missing {
            label: "load 120%".into(),
            error: "diverged".into(),
        });
        for row in [priced, missing] {
            let wire = row.to_wire();
            assert!(Row::schema().validate(&wire).is_ok(), "{wire}");
            assert_eq!(Row::from_wire(&wire).unwrap(), row);
        }
        let err = Row::from_wire(&json!({"label": "x"})).unwrap_err();
        assert!(
            err.contains("Priced: cost") && err.contains("Missing: error"),
            "{err}"
        );
        assert!(Row::schema().validate(&json!({"label": "x"})).is_err());
    }
}
