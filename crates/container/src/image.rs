//! NF images and the central image repository.
//!
//! In the paper, when the Manager requests an NF on a station, the Agent
//! "retrieves (if not already hosted locally) the NF from a central
//! repository and starts it in a container". This module models that
//! repository: layered images with sizes, published under `glanf/<nf>` names,
//! from which Agents pull into their local cache.

use gnf_nf::NfKind;
use gnf_types::{GnfError, GnfResult, ImageId};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::Arc;

/// One layer of an image (modelled only by its size; contents are irrelevant
/// to the experiments).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ImageLayer {
    /// Synthetic content digest, unique per layer.
    pub digest: String,
    /// Layer size in mebibytes.
    pub size_mb: u64,
}

/// A container (or VM) image stored in the repository.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct NfImage {
    /// Repository-assigned identifier.
    pub id: ImageId,
    /// Image name, e.g. `glanf/firewall`.
    pub name: String,
    /// Image layers, base first.
    pub layers: Vec<ImageLayer>,
}

impl NfImage {
    /// Total compressed size of the image in mebibytes.
    pub fn size_mb(&self) -> u64 {
        self.layers.iter().map(|l| l.size_mb).sum()
    }
}

/// The central NF image repository ("hub") that Agents pull from.
///
/// Every Agent of a fleet holds the same catalogue, so a clone shares it:
/// cloning bumps one reference count and allocates nothing, and every
/// station's lookups read the same cache lines. [`ImageRepository::publish`]
/// copies the catalogue first if another clone still shares it.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
#[serde(transparent)]
pub struct ImageRepository {
    catalogue: Arc<Catalogue>,
}

/// The images and their name index, shared by every clone of a repository.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
struct Catalogue {
    images: Vec<NfImage>,
    by_name: HashMap<String, usize>,
}

impl ImageRepository {
    /// Creates an empty repository.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a repository pre-populated with the standard `glanf/*`
    /// container images for every NF kind.
    pub fn with_standard_images() -> Self {
        let mut repo = Self::new();
        for kind in NfKind::all() {
            repo.publish(kind.image_name(), container_layers_for(kind))
                .expect("standard images have unique names");
        }
        repo
    }

    /// Publishes a new image under `name`. Fails if the name is taken.
    pub fn publish(&mut self, name: &str, layers: Vec<ImageLayer>) -> GnfResult<ImageId> {
        if self.catalogue.by_name.contains_key(name) {
            return Err(GnfError::already_exists("image", name));
        }
        let catalogue = Arc::make_mut(&mut self.catalogue);
        let id = ImageId::new(catalogue.images.len() as u64);
        catalogue
            .by_name
            .insert(name.to_string(), catalogue.images.len());
        catalogue.images.push(NfImage {
            id,
            name: name.to_string(),
            layers,
        });
        Ok(id)
    }

    /// Looks an image up by name.
    pub fn by_name(&self, name: &str) -> GnfResult<&NfImage> {
        self.catalogue
            .by_name
            .get(name)
            .map(|ix| &self.catalogue.images[*ix])
            .ok_or_else(|| GnfError::not_found("image", name))
    }

    /// Looks an image up by id.
    pub fn by_id(&self, id: ImageId) -> GnfResult<&NfImage> {
        self.catalogue
            .images
            .get(id.raw() as usize)
            .ok_or_else(|| GnfError::not_found("image", id))
    }

    /// The image for a given NF kind (standard naming).
    pub fn for_kind(&self, kind: NfKind) -> GnfResult<&NfImage> {
        self.by_name(kind.image_name())
    }

    /// All published images.
    pub fn images(&self) -> &[NfImage] {
        &self.catalogue.images
    }

    /// Number of published images.
    pub fn len(&self) -> usize {
        self.catalogue.images.len()
    }

    /// True when the repository is empty.
    pub fn is_empty(&self) -> bool {
        self.catalogue.images.is_empty()
    }
}

/// The standard container layers for an NF kind: a shared Alpine-like base
/// layer plus a small NF-specific layer. Sizes are calibrated to busybox-class
/// container images (a few MB), matching the paper's "lightweight Linux
/// containers".
pub fn container_layers_for(kind: NfKind) -> Vec<ImageLayer> {
    let nf_layer_mb = match kind {
        NfKind::Firewall => 2,
        NfKind::HttpFilter => 3,
        NfKind::DnsLoadBalancer => 2,
        NfKind::RateLimiter => 1,
        NfKind::Nat => 2,
        NfKind::HttpCache => 6,
        NfKind::Ids => 8,
    };
    vec![
        ImageLayer {
            digest: "sha256:base-alpine".to_string(),
            size_mb: 5,
        },
        ImageLayer {
            digest: format!("sha256:{}-v1", kind.label()),
            size_mb: nf_layer_mb,
        },
    ]
}

/// The equivalent full-VM image layers for an NF kind: a complete guest OS
/// image (hundreds of MB) plus the same NF payload. Used by the VM baseline.
pub fn vm_layers_for(kind: NfKind) -> Vec<ImageLayer> {
    let mut layers = vec![ImageLayer {
        digest: "sha256:vm-guest-os".to_string(),
        size_mb: 420,
    }];
    layers.extend(container_layers_for(kind));
    layers
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_repository_has_an_image_per_kind() {
        let repo = ImageRepository::with_standard_images();
        assert_eq!(repo.len(), NfKind::all().len());
        for kind in NfKind::all() {
            let image = repo.for_kind(kind).unwrap();
            assert_eq!(image.name, kind.image_name());
            assert!(image.size_mb() >= 6, "base layer plus NF layer");
            assert!(image.size_mb() <= 20, "container images stay small");
            assert_eq!(repo.by_id(image.id).unwrap().name, image.name);
        }
    }

    #[test]
    fn publishing_duplicate_names_fails() {
        let mut repo = ImageRepository::new();
        repo.publish("glanf/custom", vec![]).unwrap();
        let err = repo.publish("glanf/custom", vec![]).unwrap_err();
        assert_eq!(err.category(), "already_exists");
    }

    #[test]
    fn a_clone_shares_the_catalogue_until_one_side_publishes() {
        let standard = ImageRepository::with_standard_images();
        let mut extended = standard.clone();
        assert!(Arc::ptr_eq(&standard.catalogue, &extended.catalogue));
        let id = extended.publish("glanf/custom", vec![]).unwrap();
        assert!(!Arc::ptr_eq(&standard.catalogue, &extended.catalogue));
        assert_eq!(extended.by_id(id).unwrap().name, "glanf/custom");
        assert_eq!(extended.len(), standard.len() + 1);
        assert!(standard.by_name("glanf/custom").is_err());
    }

    #[test]
    fn lookups_of_missing_images_fail() {
        let repo = ImageRepository::new();
        assert!(repo.by_name("nope").is_err());
        assert!(repo.by_id(ImageId::new(3)).is_err());
        assert!(repo.is_empty());
    }

    #[test]
    fn vm_images_are_much_larger_than_container_images() {
        for kind in NfKind::all() {
            let container_size: u64 = container_layers_for(kind).iter().map(|l| l.size_mb).sum();
            let vm_size: u64 = vm_layers_for(kind).iter().map(|l| l.size_mb).sum();
            assert!(
                vm_size >= container_size * 20,
                "{kind}: VM image {vm_size} MB should dwarf container image {container_size} MB"
            );
        }
    }
}
