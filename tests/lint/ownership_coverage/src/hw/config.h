namespace pcon::hw {

struct CoreConfig
{
    int mhz_ = 0;
};

}  // namespace pcon::hw
