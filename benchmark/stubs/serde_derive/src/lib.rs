//! No-op `Serialize`/`Deserialize` derives: the stand-in `serde` traits are
//! blanket-implemented, so the derives only need to exist and to register
//! the `#[serde(...)]` helper attribute.

use proc_macro::TokenStream;

#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(_input: TokenStream) -> TokenStream {
    TokenStream::new()
}

#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(_input: TokenStream) -> TokenStream {
    TokenStream::new()
}
