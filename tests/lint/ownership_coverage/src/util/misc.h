namespace pcon::util {

class Helper
{
    int h_ = 0;
};

}  // namespace pcon::util
