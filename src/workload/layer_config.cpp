#include "workload/layer_config.hpp"

#include "util/require.hpp"

namespace sparsetrain::workload {

namespace {

LayerConfig conv(std::string name, std::size_t c, std::size_t h, std::size_t w,
                 std::size_t f, std::size_t k, std::size_t s, std::size_t p,
                 bool bn) {
  LayerConfig cfg;
  cfg.name = std::move(name);
  cfg.in_channels = c;
  cfg.in_h = h;
  cfg.in_w = w;
  cfg.out_channels = f;
  cfg.kernel = k;
  cfg.stride = s;
  cfg.padding = p;
  cfg.has_bn = bn;
  return cfg;
}

LayerConfig fc(std::string name, std::size_t in_features,
               std::size_t out_features, bool relu_after) {
  LayerConfig cfg = conv(std::move(name), in_features, 1, 1, out_features, 1,
                         1, 0, /*bn=*/false);
  cfg.relu_after = relu_after;
  cfg.is_fc = true;
  return cfg;
}

/// Appends one ResNet basic-block pair (two 3×3 convs) plus the projection
/// conv when the block downsamples.
void add_basic_block(std::vector<LayerConfig>& layers, const std::string& name,
                     std::size_t in_c, std::size_t out_c, std::size_t& h,
                     std::size_t& w, std::size_t stride) {
  layers.push_back(
      conv(name + ".conv1", in_c, h, w, out_c, 3, stride, 1, /*bn=*/true));
  const std::size_t oh = layers.back().out_h();
  const std::size_t ow = layers.back().out_w();
  layers.push_back(
      conv(name + ".conv2", out_c, oh, ow, out_c, 3, 1, 1, /*bn=*/true));
  if (stride != 1 || in_c != out_c) {
    layers.push_back(
        conv(name + ".proj", in_c, h, w, out_c, 1, stride, 0, /*bn=*/true));
    layers.back().relu_after = false;  // projection feeds the add directly
  }
  h = oh;
  w = ow;
}

NetworkConfig resnet(std::string name, std::size_t input_hw,
                     const std::vector<std::size_t>& blocks_per_stage,
                     bool imagenet_stem) {
  NetworkConfig net;
  net.name = std::move(name);
  std::size_t h = input_hw;
  std::size_t w = input_hw;
  std::size_t c;

  if (imagenet_stem) {
    net.layers.push_back(conv("stem", 3, h, w, 64, 7, 2, 3, /*bn=*/true));
    net.layers.front().first_layer = true;
    h = net.layers.front().out_h();
    w = net.layers.front().out_w();
    // 3×3/2 max-pool after the stem.
    h = (h - 1) / 2;
    w = (w - 1) / 2;
    c = 64;
  } else {
    net.layers.push_back(conv("stem", 3, h, w, 16, 3, 1, 1, /*bn=*/true));
    net.layers.front().first_layer = true;
    c = 16;
  }

  const std::size_t base = imagenet_stem ? 64 : 16;
  for (std::size_t stage = 0; stage < blocks_per_stage.size(); ++stage) {
    const std::size_t out_c = base << stage;
    for (std::size_t b = 0; b < blocks_per_stage[stage]; ++b) {
      const std::size_t stride = (stage > 0 && b == 0) ? 2 : 1;
      // Appends rather than `"s" + std::to_string(...)`: GCC 12 flags the
      // literal-plus-temporary form with a false -Wrestrict.
      std::string block = "s";
      block += std::to_string(stage + 1);
      block += ".b";
      block += std::to_string(b + 1);
      add_basic_block(net.layers, block, c, out_c, h, w, stride);
      c = out_c;
    }
  }
  net.layers.push_back(fc("fc", c, 1000, /*relu_after=*/false));
  if (!imagenet_stem) net.layers.back() = fc("fc", c, 10, false);
  return net;
}

}  // namespace

std::size_t NetworkConfig::total_forward_macs() const {
  std::size_t total = 0;
  for (const auto& l : layers) total += l.forward_macs();
  return total;
}

NetworkConfig alexnet_cifar() {
  // The common CIFAR adaptation of AlexNet (32×32 inputs, 5 convs + 3 FC,
  // 3×3 kernels, max-pools after conv1/conv2/conv5 shrinking 32→16→8→4).
  NetworkConfig net;
  net.name = "AlexNet/CIFAR";
  net.layers = {
      conv("conv1", 3, 32, 32, 64, 3, 1, 1, false),
      conv("conv2", 64, 16, 16, 192, 3, 1, 1, false),
      conv("conv3", 192, 8, 8, 384, 3, 1, 1, false),
      conv("conv4", 384, 8, 8, 256, 3, 1, 1, false),
      conv("conv5", 256, 8, 8, 256, 3, 1, 1, false),
      fc("fc6", 256 * 4 * 4, 4096, true),
      fc("fc7", 4096, 4096, true),
      fc("fc8", 4096, 10, false),
  };
  net.layers[0].first_layer = true;
  return net;
}

NetworkConfig alexnet_imagenet() {
  NetworkConfig net;
  net.name = "AlexNet/ImageNet";
  net.layers = {
      conv("conv1", 3, 227, 227, 96, 11, 4, 0, false),   // 55×55
      conv("conv2", 96, 27, 27, 256, 5, 1, 2, false),    // after 3×3/2 pool
      conv("conv3", 256, 13, 13, 384, 3, 1, 1, false),   // after pool
      conv("conv4", 384, 13, 13, 384, 3, 1, 1, false),
      conv("conv5", 384, 13, 13, 256, 3, 1, 1, false),
      fc("fc6", 256 * 6 * 6, 4096, true),
      fc("fc7", 4096, 4096, true),
      fc("fc8", 4096, 1000, false),
  };
  net.layers[0].first_layer = true;
  return net;
}

NetworkConfig resnet18_cifar() {
  return resnet("ResNet-18/CIFAR", 32, {2, 2, 2}, /*imagenet_stem=*/false);
}

NetworkConfig resnet18_imagenet() {
  return resnet("ResNet-18/ImageNet", 224, {2, 2, 2, 2},
                /*imagenet_stem=*/true);
}

NetworkConfig resnet34_cifar() {
  return resnet("ResNet-34/CIFAR", 32, {3, 4, 6}, /*imagenet_stem=*/false);
}

NetworkConfig resnet34_imagenet() {
  return resnet("ResNet-34/ImageNet", 224, {3, 4, 6, 3},
                /*imagenet_stem=*/true);
}

namespace {

/// Appends one VGG stage: `depth` same-shape 3×3 convs at `out_c`
/// channels, then the 2×2/2 max-pool that halves the spatial extent.
void add_vgg_stage(std::vector<LayerConfig>& layers, std::size_t stage,
                   std::size_t depth, std::size_t& c, std::size_t out_c,
                   std::size_t& hw) {
  for (std::size_t i = 0; i < depth; ++i) {
    layers.push_back(conv("conv" + std::to_string(stage) + "_" +
                              std::to_string(i + 1),
                          c, hw, hw, out_c, 3, 1, 1, /*bn=*/false));
    c = out_c;
  }
  hw /= 2;  // 2×2/2 max-pool
}

NetworkConfig vgg16(std::string name, std::size_t input_hw,
                    std::size_t head_width, std::size_t classes) {
  NetworkConfig net;
  net.name = std::move(name);
  std::size_t hw = input_hw;
  std::size_t c = 3;
  add_vgg_stage(net.layers, 1, 2, c, 64, hw);
  add_vgg_stage(net.layers, 2, 2, c, 128, hw);
  add_vgg_stage(net.layers, 3, 3, c, 256, hw);
  add_vgg_stage(net.layers, 4, 3, c, 512, hw);
  add_vgg_stage(net.layers, 5, 3, c, 512, hw);
  net.layers[0].first_layer = true;
  net.layers.push_back(fc("fc6", c * hw * hw, head_width, true));
  net.layers.push_back(fc("fc7", head_width, head_width, true));
  net.layers.push_back(fc("fc8", head_width, classes, false));
  return net;
}

}  // namespace

NetworkConfig vgg16_cifar() {
  // The common CIFAR adaptation keeps the 512-wide head (4096 would dwarf
  // the 1×1 feature map).
  return vgg16("VGG-16/CIFAR", 32, 512, 10);
}

NetworkConfig vgg16_imagenet() {
  return vgg16("VGG-16/ImageNet", 224, 4096, 1000);
}

NetworkConfig tiny_workload() {
  NetworkConfig net;
  net.name = "tiny";
  net.layers = {
      conv("conv1", 3, 8, 8, 4, 3, 1, 1, false),
      conv("conv2", 4, 8, 8, 8, 3, 1, 1, false),
  };
  net.layers[0].first_layer = true;
  return net;
}

std::vector<NetworkConfig> paper_workloads() {
  return {alexnet_cifar(),  resnet18_cifar(),    resnet34_cifar(),
          alexnet_imagenet(), resnet18_imagenet(), resnet34_imagenet()};
}

const std::vector<ZooEntry>& workload_zoo() {
  static const std::vector<ZooEntry> zoo = [] {
    std::vector<ZooEntry> z;
    z.push_back({alexnet_cifar(), ModelFamily::AlexNet, false});
    z.push_back({vgg16_cifar(), ModelFamily::VGG, false});
    z.push_back({resnet18_cifar(), ModelFamily::ResNet, false});
    z.push_back({resnet34_cifar(), ModelFamily::ResNet, false});
    z.push_back({alexnet_imagenet(), ModelFamily::AlexNet, true});
    z.push_back({vgg16_imagenet(), ModelFamily::VGG, true});
    z.push_back({resnet18_imagenet(), ModelFamily::ResNet, true});
    z.push_back({resnet34_imagenet(), ModelFamily::ResNet, true});
    return z;
  }();
  return zoo;
}

const ZooEntry& find_workload(const std::string& name) {
  for (const auto& entry : workload_zoo())
    if (entry.net.name == name) return entry;
  std::string known;
  for (const auto& entry : workload_zoo()) {
    if (!known.empty()) known += ", ";
    known += entry.net.name;
  }
  ST_REQUIRE(false, "no zoo workload named '" + name + "' (known: " + known +
                        ")");
  __builtin_unreachable();
}

const LayerConfig& find_layer(const std::string& workload,
                              const std::string& layer) {
  const ZooEntry& entry = find_workload(workload);
  for (const auto& l : entry.net.layers)
    if (l.name == layer) return l;
  ST_REQUIRE(false, "workload '" + workload + "' has no layer named '" +
                        layer + "'");
  __builtin_unreachable();
}

std::vector<std::string> workload_names() {
  std::vector<std::string> names;
  names.reserve(workload_zoo().size());
  for (const auto& entry : workload_zoo()) names.push_back(entry.net.name);
  return names;
}

}  // namespace sparsetrain::workload
